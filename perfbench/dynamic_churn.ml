(* dynamic-churn: the Thm 3.5 update path in process.  The two structures
   Durable maintains, Dyn_sparsifier and Dyn_matching, take one update at
   a time in a closed loop.  Set-up grows a unit-disk graph from empty;
   the timed part then moves vertices: a move deletes every edge of one
   vertex, relocates it and inserts its new edges, so the edge count
   stays steady and every window-closing rebuild costs about the same.

   Between moves the graph is a unit-disk graph (neighbourhood
   independence ≤ 5); mid-move it is one minus some edges at the moving
   vertex, which adds at most that vertex to an independent set, so the
   declared β is 6 at every update. *)

open Mspar_prelude
open Mspar_graph
open Mspar_matching
open Mspar_core
open Mspar_dynamic

let n = 1000
let avg_deg = 27.0
let beta = 6
let eps = 0.5
let multiplier = 2.0
let program_seed = 42
let setups = 5
let radius = Geo.radius_for ~n ~avg_deg

type state = { sp : Dyn_sparsifier.t; dm : Dyn_matching.t }

(* the same construction as Durable's fresh state *)
let create () =
  let base = Rng.create program_seed in
  let rng_sp = Rng.split base in
  let rng_dm = Rng.split base in
  let delta = Delta_param.scaled ~multiplier ~beta ~eps in
  {
    sp = Dyn_sparsifier.create rng_sp ~n ~delta;
    dm = Dyn_matching.create ~multiplier rng_dm ~n ~beta ~eps;
  }

let apply st ~ins u v =
  let a =
    if ins then Dyn_sparsifier.insert st.sp u v else Dyn_sparsifier.delete st.sp u v
  in
  let b = if ins then Dyn_matching.insert st.dm u v else Dyn_matching.delete st.dm u v in
  a && b

let changed ok ~ins u v =
  if not ok then
    Pb.fail "%s (%d,%d) did not change the graph" (if ins then "insert" else "delete") u v

let rebuilds st = (Dyn_matching.stats st.dm).Dyn_matching.rebuilds

(* Set-up: grow the graph from empty by inserting its edges in random
   order, [setups] times on fresh structures; the last one is kept and
   the median time reported. *)
let setup ~seed =
  let times = ref [] in
  let last = ref None in
  for _ = 1 to setups do
    (* drop the previous set-up's structures, so repeated set-ups do not
       grow the heap past what one set-up needs *)
    last := None;
    Gc.full_major ();
    let t0 = Pb.now () in
    let geo = Geo.create (Pb.Sm.create seed) ~n ~radius ~base:0 in
    let st = create () in
    Array.iter
      (fun (u, v) -> changed (apply st ~ins:true u v) ~ins:true u v)
      (Geo.shuffled_edges geo (Pb.Sm.create (seed lxor 0x960)));
    times := Pb.secs_since t0 :: !times;
    last := Some (geo, st)
  done;
  let geo, st = Option.get !last in
  (geo, st, Pb.median !times)

(* one move; [update] applies and times a single edge update *)
let round geo rng ~update =
  let v = Pb.Sm.int rng n in
  Array.iter (fun u -> update ~ins:false v u) (Geo.neighbors geo v);
  Geo.move geo rng v;
  Array.iter (fun u -> update ~ins:true v u) (Geo.neighbors geo v)

let final_checks st geo =
  (match
     Dyn_sparsifier.invariant_failures st.sp @ Dyn_matching.invariant_failures st.dm
   with
  | [] -> ()
  | f :: _ -> Pb.fail "invariant failure: %s" f);
  let g = Dyn_matching.graph st.dm in
  let m = Geo.edge_count geo in
  if Dyn_graph.m g <> m then Pb.fail "dynamic graph has %d edges, model %d" (Dyn_graph.m g) m;
  Geo.iter_edges geo (fun u v ->
      if not (Dyn_graph.has_edge g u v) then Pb.fail "model edge (%d,%d) missing" u v);
  Graph.iter_edges (Dyn_sparsifier.sparsifier st.sp) (fun u v ->
      if not (Geo.adjacent geo u v) then Pb.fail "G_Δ edge (%d,%d) is not in G" u v);
  let mm = Dyn_matching.matching st.dm in
  Geo.check_matching geo ~what:"maintained matching" (Matching.edges mm);
  (* ν by the exact matcher, certified by a Tutte–Berge witness whose odd
     components are counted here *)
  let final = Graph.of_edges_iter ~n (fun push -> Geo.iter_edges geo push) in
  let opt = Blossom.solve final in
  Geo.check_matching geo ~what:"Blossom.solve" (Matching.edges opt);
  let a = Blossom.tutte_berge_witness final opt in
  let size_a = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 a in
  let odd = Geo.odd_components geo ~skip:(fun v -> a.(v)) in
  let nu = Matching.size opt in
  if n - (2 * nu) <> odd - size_a then
    Pb.fail "Tutte–Berge witness fails: n-2ν = %d, odd(G-A)-|A| = %d" (n - (2 * nu))
      (odd - size_a);
  if (1.0 +. eps) *. float_of_int (Matching.size mm) < float_of_int nu then
    Pb.fail "(1+eps)|M| = %.1f < ν = %d" ((1.0 +. eps) *. float_of_int (Matching.size mm)) nu;
  Geo.check_beta geo ~beta;
  nu

let run ~seed ~seconds =
  let geo, st, setup_s = setup ~seed in
  let rng = Pb.Sm.create (seed lxor 0x5eed) in
  let upd = Pb.Samples.create () in
  let update ~ins u v =
    let t0 = Pb.now () in
    let ok = apply st ~ins u v in
    Pb.Samples.add upd (Pb.ns_since t0);
    changed ok ~ins u v
  in
  let t_start = Pb.now () in
  while Pb.Samples.length upd = 0 || Pb.secs_since t_start < seconds do
    round geo rng ~update
  done;
  let wall = Pb.secs_since t_start in
  let nu = final_checks st geo in
  let updates = Pb.Samples.length upd in
  let tail_pct, tail = Pb.Samples.tail upd ~max_pct:99.9 in
  {
    Pb.attempted = updates;
    failed = 0;
    metrics =
      [
        Pb.m "setup_s" "s" setup_s;
        Pb.m "peak_rss_mb" "MB" (Pb.peak_rss_mb "self");
        Pb.m "ops_per_s" "1/s" (float_of_int updates /. wall);
        Pb.m "op_p50_us" "us" (Pb.us_of_ns (Pb.Samples.median upd));
        Pb.m "op_tail_us" "us" (Pb.us_of_ns tail);
        Pb.m "matching_size" "count" (float_of_int (Dyn_matching.size st.dm));
      ];
    notes =
      [
        Printf.sprintf "dynamic-churn: n=%d m=%d |M|=%d nu=%d rebuilds=%d" n
          (Geo.edge_count geo) (Dyn_matching.size st.dm) nu (rebuilds st);
        Printf.sprintf "dynamic-churn: op_tail_us is p%g over %d updates" tail_pct updates;
      ];
  }

(* Traced pass: traced and untraced moves alternate; the gap between the
   two update medians is the tracing overhead. *)
let run_traced ~seed ~seconds =
  Pb.Trace.workload := "dynamic-churn";
  let geo, st, _ = setup ~seed in
  let setup_rebuilds = rebuilds st in
  let rng = Pb.Sm.create (seed lxor 0x5eed) in
  let plain = Pb.Samples.create () and traced = Pb.Samples.create () in
  let matching_ns = Pb.Samples.create () and rebuild_ns = Pb.Samples.create () in
  let op = ref 0 in
  let plain_update ~ins u v =
    let t0 = Pb.now () in
    let ok = apply st ~ins u v in
    Pb.Samples.add plain (Pb.ns_since t0);
    changed ok ~ins u v
  in
  let span = Pb.Trace.span in
  let traced_update ~ins u v =
    incr op;
    let op = !op in
    let t0 = Pb.now () in
    let ok =
      span "dyn.update" ~op (fun () ->
          let a =
            span "dyn.sparsifier" ~op (fun () ->
                if ins then Dyn_sparsifier.insert st.sp u v
                else Dyn_sparsifier.delete st.sp u v)
          in
          let r0 = rebuilds st in
          let b, ns =
            span "dyn.matching" ~op (fun () ->
                let t1 = Pb.now () in
                let b =
                  if ins then Dyn_matching.insert st.dm u v else Dyn_matching.delete st.dm u v
                in
                (b, Pb.ns_since t1))
          in
          (* a call during which the rebuild counter advanced closed a window *)
          Pb.Samples.add (if rebuilds st > r0 then rebuild_ns else matching_ns) ns;
          a && b)
    in
    Pb.Samples.add traced (Pb.ns_since t0);
    changed ok ~ins u v
  in
  let s0 = Dyn_matching.stats st.dm and g0 = Gc.quick_stat () in
  let t_start = Pb.now () and rounds = ref 0 in
  while !rounds < 2 || Pb.secs_since t_start < seconds do
    round geo rng ~update:(if !rounds land 1 = 0 then plain_update else traced_update);
    incr rounds
  done;
  let s1 = Dyn_matching.stats st.dm and g1 = Gc.quick_stat () in
  ignore (final_checks st geo);
  let updates = s1.Dyn_matching.updates - s0.Dyn_matching.updates in
  let per_update x = x /. float_of_int (Int.max 1 updates) in
  let overhead =
    100. *. (Pb.Samples.median traced -. Pb.Samples.median plain)
    /. Pb.Samples.median plain
  in
  ( updates,
    [
      Pb.m "dyn.sparsifier_us" "us"
        (Pb.us_of_ns (Pb.Samples.median (Pb.Trace.samples "dyn.sparsifier")));
      Pb.m "dyn.matching_us" "us" (Pb.us_of_ns (Pb.Samples.median matching_ns));
      Pb.m "dyn.rebuild_ms" "ms" (Pb.Samples.median rebuild_ns /. 1e6);
      Pb.m "dyn.rebuilds" "count"
        (float_of_int (s1.Dyn_matching.rebuilds - s0.Dyn_matching.rebuilds));
      Pb.m "dyn.setup_rebuilds" "count" (float_of_int setup_rebuilds);
      Pb.m "dyn.max_spread_work" "count" (float_of_int s1.Dyn_matching.max_spread_work);
      Pb.m "dyn.work_per_update" "count"
        (per_update (float_of_int (s1.Dyn_matching.total_work - s0.Dyn_matching.total_work)));
      Pb.m "gc.minor_mb_per_update" "MB" (per_update (Pb.gc_minor_mb g0 g1));
      Pb.m "trace.dynamic_overhead_pct" "%" overhead;
    ] )
