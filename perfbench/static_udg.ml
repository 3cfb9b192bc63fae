(* static-udg: the Thm 3.1 pipeline as a library user runs it.  Each
   operation opens a unit-disk graph from a .msgr container by mmap and
   calls Pipeline.run with the default Approx_eps matcher, no pool and a
   fixed seed; a run solves 32 such graphs in turn.  At a nominal
   average degree of 400 (≈320 after boundary loss) most vertices sample
   Δ=78 of their neighbours, so G_Δ keeps a minority of the input edges. *)

open Mspar_prelude
open Mspar_graph
open Mspar_matching
open Mspar_core

let n = 2000
let avg_deg = 400.0
let beta = 5
let eps = 0.5
let solve_seed = 7  (* the program's generator: fixed, like a CLI default *)
(* inputs per run, solved in turn, so one graph's quirks do not set the
   run: about one graph in 44 keeps a vertex the matcher cannot augment
   and solves ~1.6x slower, and with 32 graphs the p90 of solves is a
   population over several graphs rather than the slowest one *)
let graphs = 32
let setups = 3

let radius = Geo.radius_for ~n ~avg_deg
let graph_seed ~seed k = (seed * graphs) + k
let container ~dir k = Filename.concat dir (Printf.sprintf "udg-%d.msgr" k)

type input = { path : string; geo : Geo.t; m : int }

(* Generate the graphs and write the containers in a child process, so
   the workload process's peak RSS is what the program itself holds. *)
let write_containers ~seed ~dir =
  match Unix.fork () with
  | 0 ->
      let code =
        match
          for k = 0 to graphs - 1 do
            let geo = Geo.create (Pb.Sm.create (graph_seed ~seed k)) ~n ~radius ~base:0 in
            let g = Graph.of_edges_iter ~n (fun push -> Geo.iter_edges geo push) in
            Graph_io.save_packed (container ~dir k) g
          done
        with
        | () -> 0
        | exception e ->
            prerr_endline ("static-udg generator: " ^ Printexc.to_string e);
            1
      in
      Unix._exit code
  | pid -> (
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _ -> Pb.fail "generating the .msgr containers failed")

let setup ~seed ~dir =
  let times = ref [] in
  for _ = 1 to setups do
    let t0 = Pb.now () in
    write_containers ~seed ~dir;
    times := Pb.secs_since t0 :: !times
  done;
  let inputs =
    Array.init graphs (fun k ->
        let geo = Geo.create (Pb.Sm.create (graph_seed ~seed k)) ~n ~radius ~base:0 in
        { path = container ~dir k; geo; m = Geo.edge_count geo })
  in
  (inputs, Pb.median !times)

let check_result inp (r : Pipeline.result) =
  let pairs = Matching.edges r.Pipeline.matching in
  Geo.check_matching inp.geo ~what:"static-udg matching" pairs;
  let size = List.length pairs and upper = Geo.matching_upper_bound inp.geo in
  if (1.0 +. eps) *. float_of_int size < float_of_int upper then
    Pb.fail "(1+eps)|M| = %.1f < Σ⌊|C|/2⌋ = %d" ((1.0 +. eps) *. float_of_int size) upper;
  if r.Pipeline.input_edges <> inp.m then
    Pb.fail "program saw %d input edges, the generator made %d" r.Pipeline.input_edges inp.m;
  if r.Pipeline.probes_on_input >= 2 * inp.m then
    Pb.fail "probes on input %d >= 2m = %d: not sublinear" r.Pipeline.probes_on_input
      (2 * inp.m)

(* G_Δ exactly as Pipeline.run builds it (same generator state) ⊆ G *)
let check_sparsifier inp (r : Pipeline.result) =
  let g = Graph_io.load_mmap_exn inp.path in
  let sp, _ = Gdelta.sparsify (Rng.create solve_seed) g ~delta:r.Pipeline.delta in
  Graph.iter_edges sp (fun u v ->
      if not (Geo.adjacent inp.geo u v) then Pb.fail "G_Δ edge (%d,%d) is not in G" u v);
  if Graph.m sp <> r.Pipeline.sparsifier_edges then
    Pb.fail "G_Δ rebuilt with %d edges, Pipeline.run reported %d" (Graph.m sp)
      r.Pipeline.sparsifier_edges

let solve path =
  let g = Graph_io.load_mmap_exn path in
  (g, Pipeline.run (Rng.create solve_seed) g ~beta ~eps)

(* The traced operation calls the stages Pipeline.run composes, one by
   one, each in its own span; the result must be the pipeline's. *)
let solve_traced path ~op =
  let span = Pb.Trace.span in
  span "static.op" ~op (fun () ->
      let g = span "load.open" ~op (fun () -> Graph_io.load_mmap_exn path) in
      let delta = Delta_param.scaled ~multiplier:2.0 ~beta ~eps in
      Graph.reset_probes g;
      let buf, _ =
        span "mark" ~op (fun () -> Gdelta.marked_codes (Rng.create solve_seed) g ~delta)
      in
      let probes = Graph.probes g in
      let sp = span "csr.build" ~op (fun () -> Graph.of_edgebuf ~n buf) in
      let init = span "match.greedy" ~op (fun () -> Greedy.maximal sp) in
      let greedy = Matching.size init in
      let max_len = (2 * Approx.phases_for eps) + 1 in
      let mm =
        span "match.augment" ~op (fun () -> Blossom.solve_bounded ~init ~max_len sp)
      in
      (sp, probes, greedy, mm))

(* at least two solves per graph (the traced pass alternates untraced and
   traced ones), then whole operations until time is up *)
let timed_phase ~seconds ~f =
  let t_start = Pb.now () in
  let ops = ref 0 in
  while !ops < 2 * graphs || Pb.secs_since t_start < seconds do
    f !ops;
    incr ops
  done;
  (!ops, Pb.secs_since t_start)

let run ~seed ~seconds ~dir =
  let inputs, setup_s = setup ~seed ~dir in
  let op_ns = Pb.Samples.create () in
  let per_graph = Array.init graphs (fun _ -> Pb.Samples.create ()) in
  let first = Array.make graphs None in
  let ops, wall =
    timed_phase ~seconds ~f:(fun op ->
        let k = op mod graphs in
        let inp = inputs.(k) in
        let t0 = Pb.now () in
        let _, r = solve inp.path in
        let ns = Pb.ns_since t0 in
        Pb.Samples.add op_ns ns;
        Pb.Samples.add per_graph.(k) ns;
        match first.(k) with
        | None -> first.(k) <- Some r
        | Some r0 ->
            if Matching.size r.Pipeline.matching <> Matching.size r0.Pipeline.matching
            then Pb.fail "same graph and seed gave matchings of different size")
  in
  let results = Array.map Option.get first in
  Array.iteri
    (fun k r ->
      check_result inputs.(k) r;
      check_sparsifier inputs.(k) r)
    results;
  let rss = Pb.peak_rss_mb "self" in
  let tail_pct, tail = Pb.Samples.tail op_ns ~max_pct:90.0 in
  let size =
    Array.fold_left (fun acc r -> acc + Matching.size r.Pipeline.matching) 0 results
  in
  let r0 = results.(0) and m0 = inputs.(0).m in
  {
    Pb.attempted = ops;
    failed = 0;
    metrics =
      [
        Pb.m "setup_s" "s" setup_s;
        Pb.m "peak_rss_mb" "MB" rss;
        Pb.m "ops_per_s" "1/s" (float_of_int ops /. wall);
        Pb.m "op_p50_us" "us" (Pb.us_of_ns (Pb.Samples.median op_ns));
        Pb.m "op_tail_us" "us" (Pb.us_of_ns tail);
        Pb.m "matching_size" "count" (float_of_int size);
      ];
    notes =
      [
        Printf.sprintf
          "static-udg: %d graphs, n=%d; graph 0: m=%d delta=%d G_delta=%d (%.3f of m) probes=%d"
          graphs n m0 r0.Pipeline.delta r0.Pipeline.sparsifier_edges
          (float_of_int r0.Pipeline.sparsifier_edges /. float_of_int m0)
          r0.Pipeline.probes_on_input;
        Printf.sprintf "static-udg: op_tail_us is p%g over %d solves" tail_pct
          (Pb.Samples.length op_ns);
        Printf.sprintf "static-udg: median solve per graph (ms):%s"
          (String.concat ""
             (Array.to_list
                (Array.map
                   (fun s -> Printf.sprintf " %.1f" (Pb.Samples.median s /. 1e6))
                   per_graph)));
        Printf.sprintf "static-udg: |M| per graph:%s"
          (String.concat ""
             (Array.to_list
                (Array.map (fun r -> Printf.sprintf " %d" (Matching.size r.Pipeline.matching)) results)));
      ];
  }

(* Traced pass: each graph is solved untraced then traced, in turn, so
   the gap between the two medians is the tracing overhead. *)
let run_traced ~seed ~seconds ~dir =
  Pb.Trace.workload := "static-udg";
  let inputs, _ = setup ~seed ~dir in
  let plain = Pb.Samples.create () and traced = Pb.Samples.create () in
  let probes = ref [] and share = ref [] and augmentations = ref [] in
  let minor_mb = ref 0.0 and majors = ref 0 and plain_ops = ref 0 in
  let ops, _ =
    timed_phase ~seconds ~f:(fun op ->
        let inp = inputs.(op / 2 mod graphs) in
        if op land 1 = 0 then begin
          let g0 = Gc.quick_stat () in
          let t0 = Pb.now () in
          let _, r = solve inp.path in
          Pb.Samples.add plain (Pb.ns_since t0);
          let g1 = Gc.quick_stat () in
          minor_mb := !minor_mb +. Pb.gc_minor_mb g0 g1;
          majors := !majors + (g1.Gc.major_collections - g0.Gc.major_collections);
          incr plain_ops;
          check_result inp r
        end
        else begin
          let t0 = Pb.now () in
          let sp, p, greedy, mm = solve_traced inp.path ~op in
          Pb.Samples.add traced (Pb.ns_since t0);
          Graph.iter_edges sp (fun u v ->
              if not (Geo.adjacent inp.geo u v) then
                Pb.fail "G_Δ edge (%d,%d) is not in G" u v);
          Geo.check_matching inp.geo ~what:"traced matching" (Matching.edges mm);
          (* the staged operation must reproduce Pipeline.run *)
          let _, r = solve inp.path in
          if Matching.size mm <> Matching.size r.Pipeline.matching then
            Pb.fail "staged solve |M|=%d, Pipeline.run |M|=%d" (Matching.size mm)
              (Matching.size r.Pipeline.matching);
          probes := float_of_int p :: !probes;
          share := (float_of_int (Graph.m sp) /. float_of_int inp.m) :: !share;
          augmentations := float_of_int (Matching.size mm - greedy) :: !augmentations
        end)
  in
  let med name = Pb.Samples.median (Pb.Trace.samples name) in
  let per_op x = x /. float_of_int (Int.max 1 !plain_ops) in
  let overhead =
    100. *. (Pb.Samples.median traced -. Pb.Samples.median plain)
    /. Pb.Samples.median plain
  in
  ( ops,
    [
      Pb.m "load.open_us" "us" (Pb.us_of_ns (med "load.open"));
      Pb.m "mark.ms" "ms" (med "mark" /. 1e6);
      Pb.m "mark.probes" "count" (Pb.median !probes);
      Pb.m "csr.build_ms" "ms" (med "csr.build" /. 1e6);
      Pb.m "sparsifier.edge_share" "ratio" (Pb.median !share);
      Pb.m "match.greedy_ms" "ms" (med "match.greedy" /. 1e6);
      Pb.m "match.augment_ms" "ms" (med "match.augment" /. 1e6);
      Pb.m "match.augmentations" "count" (Pb.median !augmentations);
      Pb.m "gc.minor_mb_per_solve" "MB" (per_op !minor_mb);
      Pb.m "gc.major_per_solve" "count" (per_op (float_of_int !majors));
      Pb.m "trace.static_overhead_pct" "%" overhead;
    ] )
