(* The benchmark's own unit-disk graphs and the references its checks
   compare against.  Nothing here calls the program: points come from
   Pb.Sm, adjacency is "distance <= radius" evaluated here, and every
   reference (edge sets, components, odd components, neighbourhood
   independence, the CSR checksum) is computed from the points alone. *)

type t = {
  n : int;
  base : int;  (** global id of local vertex 0 *)
  xs : float array;
  ys : float array;
  r2 : float;
  k : int;  (** grid side: cells are at least [radius] wide *)
  cell : int array;  (** cell of each point *)
  cells : int list array;  (** points of each cell *)
}

let radius_for ~n ~avg_deg = sqrt (avg_deg /. (Float.pi *. float_of_int n))

let cell_index t x y =
  let c v = Int.max 0 (Int.min (t.k - 1) (int_of_float (v *. float_of_int t.k))) in
  (c x * t.k) + c y

let create rng ~n ~radius ~base =
  let k = Int.max 1 (Int.min 4096 (int_of_float (1.0 /. radius))) in
  let xs = Array.make n 0.0 and ys = Array.make n 0.0 in
  for i = 0 to n - 1 do
    xs.(i) <- Pb.Sm.float rng;
    ys.(i) <- Pb.Sm.float rng
  done;
  let t =
    { n; base; xs; ys; r2 = radius *. radius; k; cell = Array.make n 0;
      cells = Array.make (k * k) [] }
  in
  for i = n - 1 downto 0 do
    let c = cell_index t xs.(i) ys.(i) in
    t.cell.(i) <- c;
    t.cells.(c) <- i :: t.cells.(c)
  done;
  t

let adjacent t i j =
  i <> j
  &&
  let dx = t.xs.(i) -. t.xs.(j) and dy = t.ys.(i) -. t.ys.(j) in
  (dx *. dx) +. (dy *. dy) <= t.r2

(* local neighbours of local vertex [i], any order *)
let iter_neighbors t i f =
  let c = t.cell.(i) in
  let cx = c / t.k and cy = c mod t.k in
  for dx = -1 to 1 do
    for dy = -1 to 1 do
      let x = cx + dx and y = cy + dy in
      if x >= 0 && x < t.k && y >= 0 && y < t.k then
        List.iter (fun j -> if adjacent t i j then f j) t.cells.((x * t.k) + y)
    done
  done

let neighbors t i =
  let acc = ref [] in
  iter_neighbors t i (fun j -> acc := j :: !acc);
  let a = Array.of_list !acc in
  Array.sort Int.compare a;
  a

(* each edge once, as local ids with u < v *)
let iter_edges t f =
  for u = 0 to t.n - 1 do
    iter_neighbors t u (fun v -> if u < v then f u v)
  done

let edge_count t =
  let m = ref 0 in
  iter_edges t (fun _ _ -> incr m);
  !m

(* every edge once, in a random order *)
let shuffled_edges t rng =
  let acc = ref [] in
  iter_edges t (fun u v -> acc := (u, v) :: !acc);
  let a = Array.of_list !acc in
  for i = Array.length a - 1 downto 1 do
    let j = Pb.Sm.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* move local vertex [i] to a fresh uniform position *)
let move t rng i =
  let c = t.cell.(i) in
  t.cells.(c) <- List.filter (fun j -> j <> i) t.cells.(c);
  t.xs.(i) <- Pb.Sm.float rng;
  t.ys.(i) <- Pb.Sm.float rng;
  let c' = cell_index t t.xs.(i) t.ys.(i) in
  t.cell.(i) <- c';
  t.cells.(c') <- i :: t.cells.(c')

(* ------------------------------------------------------------------ *)
(* references                                                         *)
(* ------------------------------------------------------------------ *)

(* sizes of the connected components of the graph minus [skip] *)
let component_sizes ?(skip = fun _ -> false) t =
  let seen = Array.make t.n false in
  let queue = Array.make t.n 0 in
  let sizes = ref [] in
  for s = 0 to t.n - 1 do
    if (not seen.(s)) && not (skip s) then begin
      seen.(s) <- true;
      queue.(0) <- s;
      let head = ref 0 and tl = ref 1 in
      while !head < !tl do
        let u = queue.(!head) in
        incr head;
        iter_neighbors t u (fun v ->
            if (not seen.(v)) && not (skip v) then begin
              seen.(v) <- true;
              queue.(!tl) <- v;
              incr tl
            end)
      done;
      sizes := !tl :: !sizes
    end
  done;
  !sizes

(* Σ ⌊|C|/2⌋ over components: an upper bound on the maximum matching *)
let matching_upper_bound t =
  List.fold_left (fun acc s -> acc + (s / 2)) 0 (component_sizes t)

(* odd components of G − A, for the Tutte–Berge certificate *)
let odd_components t ~skip =
  List.length (List.filter (fun s -> s land 1 = 1) (component_sizes ~skip t))

(* [pairs] are matched pairs of local ids: each must be an edge of this
   graph, and no vertex may appear twice *)
let check_matching t ~what pairs =
  let used = Array.make t.n false in
  List.iter
    (fun (u, v) ->
      if u < 0 || v < 0 || u >= t.n || v >= t.n then
        Pb.fail "%s: matched pair (%d,%d) out of range" what u v;
      if not (adjacent t u v) then
        Pb.fail "%s: matched pair (%d,%d) is not an input edge" what u v;
      if used.(u) || used.(v) then
        Pb.fail "%s: vertex matched twice at (%d,%d)" what u v;
      used.(u) <- true;
      used.(v) <- true)
    pairs

(* Is there an independent set of size [k] among [cands]?  Exact
   branch-and-bound; unit-disk neighbourhoods are dense, so it is fast. *)
let rec has_independent t cands k =
  if k = 0 then true
  else
    match cands with
    | [] -> false
    | _ when List.compare_length_with cands k < 0 -> false
    | v :: rest ->
        has_independent t (List.filter (fun u -> not (adjacent t v u)) rest) (k - 1)
        || has_independent t rest k

(* neighbourhood independence ≤ beta, checked vertex by vertex *)
let check_beta t ~beta =
  for v = 0 to t.n - 1 do
    if has_independent t (Array.to_list (neighbors t v)) (beta + 1) then
      Pb.fail "vertex %d has %d independent neighbours (declared beta %d)"
        (t.base + v) (beta + 1) beta
  done

(* ------------------------------------------------------------------ *)
(* CSR checksum of an edge set over [n] global vertices               *)
(* ------------------------------------------------------------------ *)

(* The FNV-1a digest the program's Checksum reply carries, recomputed
   here from a plain edge list: n, then the n+1 CSR offsets, then every
   vertex's sorted neighbour list. *)
let csr_checksum ~n edges =
  let deg = Array.make n 0 in
  List.iter
    (fun (u, v) ->
      deg.(u) <- deg.(u) + 1;
      deg.(v) <- deg.(v) + 1)
    edges;
  let off = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    off.(i + 1) <- off.(i) + deg.(i)
  done;
  let adj = Array.make off.(n) 0 in
  let fill = Array.sub off 0 n in
  List.iter
    (fun (u, v) ->
      adj.(fill.(u)) <- v;
      fill.(u) <- fill.(u) + 1;
      adj.(fill.(v)) <- u;
      fill.(v) <- fill.(v) + 1)
    edges;
  for i = 0 to n - 1 do
    let s = Array.sub adj off.(i) deg.(i) in
    Array.sort Int.compare s;
    Array.blit s 0 adj off.(i) deg.(i)
  done;
  let h = ref 0xcbf29ce484222325L in
  let mix v =
    let v = ref (Int64.of_int v) in
    for _ = 0 to 7 do
      h := Int64.mul (Int64.logxor !h (Int64.logand !v 0xffL)) 0x100000001b3L;
      v := Int64.shift_right_logical !v 8
    done
  in
  mix n;
  Array.iter mix off;
  Array.iter mix adj;
  !h
