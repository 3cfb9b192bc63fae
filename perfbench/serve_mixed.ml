(* serve-mixed: the traced pass of the served path.  A forked `mspar
   serve` on a fresh journal is driven by one generator process over two
   pipelined connections in a closed loop, each with a fixed window.  Each
   connection owns a disjoint vertex partition (its own unit square of
   points), so it keeps an exact model of its own edges.  Vertex moves (as
   in dynamic-churn) are interleaved with Query_edge, Query_sparsifier and
   Query_matched.  The served run supplies the Stats counters; an
   in-process replay of the same streams times the layers.  There is no
   untraced end-to-end run: its timings did not repeat on a shared host
   (see README.md). *)

open Mspar_prelude
open Mspar_core
open Mspar_dynamic
open Mspar_lca
open Mspar_server

let parts = 2
let part_n = 128
let n = parts * part_n
let avg_deg = 12.0
let beta = 6  (* as in dynamic-churn: ≤ 5 between moves, ≤ 6 mid-move *)
let eps = 0.5
let multiplier = 1.0  (* the serve CLI's default *)
let program_seed = 42
let window = 8
let query_pct = 40  (* queries per 100 updates *)
let radius = Geo.radius_for ~n:part_n ~avg_deg

(* what a Bool answer may be *)
type expect =
  | Exact of bool  (** Query_edge: the model's answer *)
  | Only_if_edge of bool  (** Query_sparsifier: true only for a present edge *)
  | Only_if_incident of bool  (** Query_matched: true only with an incident edge *)

type action = { req : Wire.request; expect : expect option; timed : bool }

(* One connection's request stream and the model it implies.  The model
   is advanced as requests are generated, so each query's expectation is
   the model at its place in the stream: a connection's requests are
   applied in order and no other connection touches its partition. *)
type stream = {
  sid : int;
  geo : Geo.t;
  model : (int, unit) Hashtbl.t;  (** edges as u*n+v, u<v, global ids *)
  deg : int array;  (** model degree, local ids *)
  queue : action Queue.t;  (** generated, not yet sent *)
  rng : Pb.Sm.t;
  mutable rid : int;
}

let key u v = if u < v then (u * n) + v else (v * n) + u

let stream ~seed sid =
  let base = sid * part_n in
  {
    sid;
    geo = Geo.create (Pb.Sm.create ((seed * 7919) + sid)) ~n:part_n ~radius ~base;
    model = Hashtbl.create 8192;
    deg = Array.make part_n 0;
    queue = Queue.create ();
    rng = Pb.Sm.create ((seed * 104729) + sid);
    rid = 0;
  }

let push_query s ~timed =
  let geo = s.geo in
  let w = Pb.Sm.int s.rng part_n in
  let x =
    let nb = Geo.neighbors geo w in
    if Pb.Sm.int s.rng 2 = 0 && Array.length nb > 0 then nb.(Pb.Sm.int s.rng (Array.length nb))
    else Pb.Sm.int s.rng part_n
  in
  let gw = geo.Geo.base + w and gx = geo.Geo.base + x in
  let present = gw <> gx && Hashtbl.mem s.model (key gw gx) in
  let req, expect =
    match Pb.Sm.int s.rng 3 with
    | 0 -> (Wire.Query_edge (gw, gx), Exact present)
    | 1 -> (Wire.Query_sparsifier (gw, gx), Only_if_edge present)
    | _ -> (Wire.Query_matched gw, Only_if_incident (s.deg.(w) > 0))
  in
  Queue.add { req; expect = Some expect; timed } s.queue

let push_update s ~ins ~timed ~queries u v =
  let base = s.geo.Geo.base in
  let gu = base + u and gv = base + v in
  s.rid <- s.rid + 1;
  let rid = s.rid in
  let req =
    if ins then Wire.Insert { rid; u = gu; v = gv } else Wire.Delete { rid; u = gu; v = gv }
  in
  let d = if ins then 1 else -1 in
  if ins then Hashtbl.replace s.model (key gu gv) () else Hashtbl.remove s.model (key gu gv);
  s.deg.(u) <- s.deg.(u) + d;
  s.deg.(v) <- s.deg.(v) + d;
  Queue.add { req; expect = None; timed } s.queue;
  if queries && Pb.Sm.int s.rng 100 < query_pct then push_query s ~timed

(* the partition's initial unit-disk graph, inserts only *)
let push_growth s =
  Geo.iter_edges s.geo (fun u v -> push_update s ~ins:true ~timed:false ~queries:false u v)

(* one vertex move with queries interleaved *)
let push_round s =
  let geo = s.geo in
  let v = Pb.Sm.int s.rng part_n in
  Array.iter
    (fun u -> push_update s ~ins:false ~timed:true ~queries:true v u)
    (Geo.neighbors geo v);
  Geo.move geo s.rng v;
  Array.iter
    (fun u -> push_update s ~ins:true ~timed:true ~queries:true v u)
    (Geo.neighbors geo v)

let model_checksum streams =
  let edges =
    List.concat_map
      (fun s -> Hashtbl.fold (fun k () acc -> (k / n, k mod n) :: acc) s.model [])
      streams
  in
  Geo.csr_checksum ~n edges

(* ------------------------------------------------------------------ *)
(* tallies                                                            *)
(* ------------------------------------------------------------------ *)

type tally = {
  upd : Pb.Samples.t;  (** send → Ack, ns *)
  qry : Pb.Samples.t;  (** send → Bool, ns *)
  mutable acked : int;  (** every acknowledged update, set-up included *)
  mutable failed : int;  (** Busy, Error and other refusals *)
}

let tally () =
  { upd = Pb.Samples.create (); qry = Pb.Samples.create (); acked = 0; failed = 0 }

let pp_req ppf = function
  | Wire.Query_edge (u, v) -> Fmt.pf ppf "Query_edge(%d,%d)" u v
  | Wire.Query_sparsifier (u, v) -> Fmt.pf ppf "Query_sparsifier(%d,%d)" u v
  | Wire.Query_matched v -> Fmt.pf ppf "Query_matched(%d)" v
  | Wire.Insert { u; v; _ } -> Fmt.pf ppf "Insert(%d,%d)" u v
  | Wire.Delete { u; v; _ } -> Fmt.pf ppf "Delete(%d,%d)" u v
  | _ -> Fmt.string ppf "request"

let check_answer a b =
  match a.expect with
  | Some (Exact e) when b <> e ->
      Pb.fail "%s answered %b, the model says %b" (Fmt.str "%a" pp_req a.req) b e
  | Some (Only_if_edge false) when b ->
      Pb.fail "%s true for an absent edge" (Fmt.str "%a" pp_req a.req)
  | Some (Only_if_incident false) when b ->
      Pb.fail "%s true for a vertex with no edge" (Fmt.str "%a" pp_req a.req)
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* the forked daemon                                                  *)
(* ------------------------------------------------------------------ *)

let live_daemons = ref []

let kill_daemon pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  live_daemons := List.filter (fun p -> p <> pid) !live_daemons

(* every exit path, a failed check included, takes the daemon down *)
let () = at_exit (fun () -> List.iter kill_daemon !live_daemons)

let start_daemon ~mspar ~dir =
  Unix.mkdir dir 0o755;
  let sock = Filename.concat dir "s.sock" in
  let log =
    Unix.openfile (Filename.concat dir "daemon.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let args =
    [| mspar; "serve"; "--socket"; sock; "--journal"; Filename.concat dir "journal";
       "-n"; string_of_int n; "--beta"; string_of_int beta; "--eps"; string_of_float eps;
       "--seed"; string_of_int program_seed |]
  in
  let pid = Unix.create_process mspar args Unix.stdin log log in
  Unix.close log;
  live_daemons := pid :: !live_daemons;
  (pid, sock)

let stop_daemon pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let t0 = Pb.now () in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Pb.secs_since t0 < 10.0 ->
        Unix.sleepf 0.01;
        wait ()
    | 0, _ -> kill_daemon pid
    | _ -> live_daemons := List.filter (fun p -> p <> pid) !live_daemons
  in
  wait ()

(* ------------------------------------------------------------------ *)
(* pipelined connections                                              *)
(* ------------------------------------------------------------------ *)

type conn = {
  s : stream;
  fd : Unix.file_descr;
  frames : Codec.Frames.t;
  out : Buffer.t;
  body : Buffer.t;
  inflight : (action * int64) Queue.t;
  retry : action Queue.t;  (** refused with Busy, resent first *)
}

let read_buf = Bytes.create 65536

let connect ~pid sock s =
  let t0 = Pb.now () in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> fd
    | exception Unix.Unix_error _ ->
        Unix.close fd;
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ -> Pb.fail "mspar serve exited during start-up (see its log)");
        if Pb.secs_since t0 > 30.0 then Pb.fail "mspar serve did not accept within 30 s";
        Unix.sleepf 0.005;
        go ()
  in
  {
    s;
    fd = go ();
    frames = Codec.Frames.create ();
    out = Buffer.create 4096;
    body = Buffer.create 64;
    inflight = Queue.create ();
    retry = Queue.create ();
  }

let write_all fd buf =
  let s = Buffer.contents buf in
  let len = String.length s in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write_substring fd s !off (len - !off)
  done

let encode c req =
  Buffer.clear c.body;
  Wire.encode_request c.body req;
  Codec.Frames.encode c.out (Buffer.contents c.body)

(* top the window up; one write per batch, stamped just before it *)
let send_ready c =
  Buffer.clear c.out;
  let batch = ref [] in
  while
    Queue.length c.inflight + List.length !batch < window
    && not (Queue.is_empty c.retry && Queue.is_empty c.s.queue)
  do
    let a = if Queue.is_empty c.retry then Queue.pop c.s.queue else Queue.pop c.retry in
    encode c a.req;
    batch := a :: !batch
  done;
  if !batch <> [] then begin
    let t = Pb.now () in
    List.iter (fun a -> Queue.add (a, t) c.inflight) (List.rev !batch);
    write_all c.fd c.out
  end

let on_response tally c resp =
  let a, t0 = Queue.pop c.inflight in
  let ns = Pb.ns_since t0 in
  match (a.req, resp) with
  | (Wire.Insert _ | Wire.Delete _), Wire.Ack changed ->
      if not changed then Pb.fail "an update was acknowledged without changing the graph";
      tally.acked <- tally.acked + 1;
      if a.timed then Pb.Samples.add tally.upd ns
  | (Wire.Query_edge _ | Wire.Query_sparsifier _ | Wire.Query_matched _), Wire.Bool b ->
      check_answer a b;
      if a.timed then Pb.Samples.add tally.qry ns
  | _, Wire.Busy _ ->
      tally.failed <- tally.failed + 1;
      Queue.add a c.retry
  | _, Wire.Error msg -> Pb.fail "the server answered Error: %s" msg
  | _, _ -> Pb.fail "unexpected response to %s" (Fmt.str "%a" pp_req a.req)

let rec drain_frames tally c =
  match Codec.Frames.next c.frames with
  | `Frame body -> (
      match Wire.decode_response body with
      | Ok r ->
          on_response tally c r;
          drain_frames tally c
      | Error msg -> Pb.fail "undecodable response: %s" msg)
  | `Need_more -> ()
  | `Corrupt msg -> Pb.fail "corrupt response stream: %s" msg

let read_more c =
  match Unix.read c.fd read_buf 0 (Bytes.length read_buf) with
  | 0 -> Pb.fail "the server closed a connection"
  | k -> Codec.Frames.feed c.frames (Bytes.sub_string read_buf 0 k)

let on_readable tally c =
  read_more c;
  drain_frames tally c

(* Closed loop over all connections until every queue is empty and
   nothing is in flight; [more] may generate the next round. *)
let pump tally conns ~more =
  let rec loop () =
    List.iter
      (fun c ->
        if Queue.is_empty c.s.queue then more c.s;
        send_ready c)
      conns;
    let waiting = List.filter (fun c -> not (Queue.is_empty c.inflight)) conns in
    if waiting <> [] then begin
      (match Unix.select (List.map (fun c -> c.fd) waiting) [] [] 30.0 with
      | [], _, _ -> Pb.fail "no response from the server for 30 s"
      | ready, _, _ ->
          List.iter (fun c -> if List.memq c.fd ready then on_readable tally c) waiting
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ()

(* one synchronous request on an idle connection *)
let request c req =
  Buffer.clear c.out;
  encode c req;
  write_all c.fd c.out;
  let rec await () =
    match Codec.Frames.next c.frames with
    | `Frame body -> (
        match Wire.decode_response body with
        | Ok r -> r
        | Error msg -> Pb.fail "undecodable response: %s" msg)
    | `Corrupt msg -> Pb.fail "corrupt response stream: %s" msg
    | `Need_more ->
        read_more c;
        await ()
  in
  await ()

(* ------------------------------------------------------------------ *)
(* the served run                                                     *)
(* ------------------------------------------------------------------ *)

type served = {
  pid : int;
  conns : conn list;
  tally : tally;
}

(* start the daemon, say Hello on both connections and grow both
   partitions to their initial unit-disk graphs *)
let bring_up ~mspar ~seed ~dir =
  let pid, sock = start_daemon ~mspar ~dir in
  let conns = List.init parts (fun sid -> connect ~pid sock (stream ~seed sid)) in
  List.iter
    (fun c ->
      match request c (Wire.Hello (c.s.sid + 1)) with
      | Wire.Ok -> ()
      | _ -> Pb.fail "Hello was refused")
    conns;
  let tally = tally () in
  List.iter (fun c -> push_growth c.s) conns;
  pump tally conns ~more:(fun _ -> ());
  { pid; conns; tally }

let tear_down sv ~dir =
  List.iter (fun c -> Unix.close c.fd) sv.conns;
  stop_daemon sv.pid;
  Pb.rm_rf dir

let served_run ~mspar ~seed ~seconds ~dir =
  let d = Filename.concat dir "serve" in
  let sv = bring_up ~mspar ~seed ~dir:d in
  let tally = sv.tally in
  let t_start = Pb.now () in
  pump tally sv.conns ~more:(fun s ->
      if Pb.secs_since t_start < seconds then push_round s);
  let c0 = List.hd sv.conns in
  let digest =
    match request c0 Wire.Checksum with
    | Wire.Digest d -> d
    | _ -> Pb.fail "Checksum was refused"
  in
  let summary =
    match request c0 Wire.Stats with
    | Wire.Stats_reply s -> s
    | _ -> Pb.fail "Stats was refused"
  in
  if digest.Wire.op_count <> tally.acked then
    Pb.fail "digest op_count %d, acknowledged updates %d" digest.Wire.op_count tally.acked;
  let expected = model_checksum (List.map (fun c -> c.s) sv.conns) in
  if not (Int64.equal digest.Wire.graph expected) then
    Pb.fail "digest graph checksum %Lx, model checksum %Lx" digest.Wire.graph expected;
  tear_down sv ~dir:d;
  (tally, summary)

(* ------------------------------------------------------------------ *)
(* traced pass                                                        *)
(* ------------------------------------------------------------------ *)

(* The same request streams replayed in process through the reactor's
   order: decode, Dispatch.handle, one group commit per round, encode.
   A round takes one window from each connection.  Traced and untraced
   rounds alternate; both make the same calls. *)
type spanner = { span : 'a. string -> (unit -> 'a) -> 'a }

let replay ~seed ~seconds ~dir =
  let jdir = Filename.concat dir "replay" in
  let delta = Delta_param.scaled ~multiplier ~beta ~eps in
  let durable =
    Durable.create ~dir:jdir { Durable.n; delta; beta; eps; multiplier; seed = program_seed }
  in
  let d = Dispatch.create ~metrics:(Metrics.create ()) durable in
  let streams = List.init parts (fun sid -> stream ~seed sid) in
  let body = Buffer.create 64 and out = Buffer.create 4096 in
  let plain = Pb.Samples.create () and traced = Pb.Samples.create () in
  let noop = { span = (fun _ f -> f ()) } in
  let one { span } s a =
    Buffer.clear body;
    Wire.encode_request body a.req;
    let wire = Buffer.contents body in
    let req =
      match span "wire.decode" (fun () -> Wire.decode_request wire) with
      | Ok r -> r
      | Error msg -> Pb.fail "replay decode: %s" msg
    in
    let client = Some (s.sid + 1) in
    let resp =
      match req with
      | Wire.Insert { u; v; _ } | Wire.Delete { u; v; _ } ->
          (* the invalidation handle makes for a changed edge, timed on
             its own while the caches are still warm; the one inside
             handle then finds them empty *)
          span "oracle.invalidate" (fun () ->
              Oracle.invalidate_edge (Dispatch.oracle d) u v);
          let r = span "dispatch.update" (fun () -> Dispatch.handle d ~client req) in
          (match r with
          | Wire.Ack true -> ()
          | _ -> Pb.fail "replayed update was not applied");
          r
      | _ -> span "dispatch.query" (fun () -> Dispatch.handle d ~client req)
    in
    (match resp with Wire.Bool b -> check_answer a b | _ -> ());
    resp
  in
  let round sp batch =
    let span = sp.span in
    let resps = List.map (fun (s, a) -> one sp s a) batch in
    span "journal.fsync" (fun () -> Dispatch.sync_if_dirty d);
    List.iter
      (fun r ->
        Buffer.clear out;
        span "wire.encode" (fun () -> Wire.encode_response out r))
      resps
  in
  let take ~more =
    List.concat_map
      (fun s ->
        if Queue.is_empty s.queue then more s;
        List.init (Int.min window (Queue.length s.queue)) (fun _ -> (s, Queue.pop s.queue)))
      streams
  in
  List.iter push_growth streams;
  let rec grow () =
    match take ~more:(fun _ -> ()) with
    | [] -> ()
    | batch ->
        round noop batch;
        grow ()
  in
  grow ();
  let t_start = Pb.now () and rounds = ref 0 in
  let more s = if Pb.secs_since t_start < seconds then push_round s in
  let rec go () =
    match take ~more with
    | [] -> ()
    | batch ->
        incr rounds;
        let op = !rounds in
        let t0 = Pb.now () in
        if op land 1 = 0 then begin
          round noop batch;
          Pb.Samples.add plain (Pb.ns_since t0)
        end
        else begin
          Pb.Trace.span "serve.round" ~op (fun () ->
              round { span = (fun name f -> Pb.Trace.span name ~op f) } batch);
          Pb.Samples.add traced (Pb.ns_since t0)
        end;
        go ()
  in
  go ();
  Durable.close durable;
  Pb.rm_rf jdir;
  (plain, traced)

let run_traced ~mspar ~seed ~seconds ~dir =
  Pb.Trace.workload := "serve-mixed";
  let tally, summary = served_run ~mspar ~seed ~seconds:(seconds /. 2.) ~dir in
  let plain, traced = replay ~seed ~seconds:(seconds /. 2.) ~dir in
  (* mean self time per call: rare expensive calls (a cold oracle replay,
     an O(capacity) cache clear, a rebuild) are where the time goes, and
     a median would hide them *)
  let mean name = Pb.us_of_ns (Pb.Samples.mean (Pb.Trace.samples name)) in
  let hits = summary.Wire.oracle_hits and misses = summary.Wire.oracle_misses in
  let overhead =
    100. *. (Pb.Samples.median traced -. Pb.Samples.median plain)
    /. Pb.Samples.median plain
  in
  ( Pb.Samples.length tally.upd + Pb.Samples.length tally.qry + tally.failed,
    tally.failed,
    [
      Pb.m "wire.decode_us" "us" (mean "wire.decode");
      Pb.m "wire.encode_us" "us" (mean "wire.encode");
      Pb.m "dispatch.update_us" "us" (mean "dispatch.update");
      Pb.m "dispatch.query_us" "us" (mean "dispatch.query");
      Pb.m "journal.fsync_us" "us" (mean "journal.fsync");
      Pb.m "oracle.invalidate_us" "us" (mean "oracle.invalidate");
      Pb.m "oracle.hit_ratio" "ratio"
        (float_of_int hits /. float_of_int (Int.max 1 (hits + misses)));
      Pb.m "server.busy" "count" (float_of_int summary.Wire.busy_rejections);
      Pb.m "trace.serve_overhead_pct" "%" overhead;
    ] )
