(* Harness plumbing shared by the workloads: the monotonic clock, latency
   samples and percentiles, the span recorder of traced runs, process
   memory, and the result line. *)

(* ------------------------------------------------------------------ *)
(* clock                                                              *)
(* ------------------------------------------------------------------ *)

(* CLOCK_MONOTONIC in nanoseconds, noalloc: immune to wall-clock steps
   and fine enough for the ~µs in-process updates. *)
let now () = Monotonic_clock.now ()
let ns_between t0 t1 = Int64.to_int (Int64.sub t1 t0)
let ns_since t0 = ns_between t0 (now ())
let secs_since t0 = float_of_int (ns_since t0) /. 1e9

(* ------------------------------------------------------------------ *)
(* checks                                                             *)
(* ------------------------------------------------------------------ *)

exception Check_failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Check_failed s)) fmt

(* ------------------------------------------------------------------ *)
(* the benchmark's own generator (splitmix64), independent of Rng     *)
(* ------------------------------------------------------------------ *)

module Sm = struct
  type t = { mutable s : int64 }

  let create seed = { s = Int64.of_int seed }

  let next t =
    t.s <- Int64.add t.s 0x9E3779B97F4A7C15L;
    let z = t.s in
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
    in
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
    in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let float t = Int64.to_float (Int64.shift_right_logical (next t) 11) *. 0x1p-53

  let int t bound =
    Int64.to_int (Int64.unsigned_rem (next t) (Int64.of_int bound))
end

(* ------------------------------------------------------------------ *)
(* latency samples                                                    *)
(* ------------------------------------------------------------------ *)

(* A latency histogram of fixed size: bucket b >= 1 holds the samples in
   [ratio^(b-1), ratio^b) ns, bucket 0 those below 1 ns.  Memory does not
   grow with the sample count, so a faster program, which takes more
   samples in the same time, does not raise the workload's peak RSS.  A
   percentile is interpolated inside its bucket (geometrically, by rank)
   and clamped to the exact minimum and maximum, so it is within one
   bucket (1%) of the sample at that rank. *)
module Samples = struct
  let ratio = 1.01
  let log_ratio = log ratio
  let buckets = 2800 (* ratio^2799 ns is over 10^12 ns *)

  type t = {
    counts : int array;
    mutable len : int;
    mutable sum : int;
    mutable lo : int;
    mutable hi : int;
  }

  let create () = { counts = Array.make buckets 0; len = 0; sum = 0; lo = max_int; hi = 0 }

  let bucket x =
    if x < 1 then 0
    else Int.min (buckets - 1) (1 + int_of_float (log (float_of_int x) /. log_ratio))

  let add t x =
    let b = bucket x in
    t.counts.(b) <- t.counts.(b) + 1;
    t.len <- t.len + 1;
    t.sum <- t.sum + x;
    if x < t.lo then t.lo <- x;
    if x > t.hi then t.hi <- x

  let length t = t.len

  (* nearest-rank percentile *)
  let percentile t p =
    if t.len = 0 then nan
    else begin
      let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int t.len)) in
      let rank = Int.max 1 (Int.min t.len rank) in
      let rec find b below =
        let c = t.counts.(b) in
        if below + c >= rank then (b, below, c) else find (b + 1) (below + c)
      in
      let b, below, c = find 0 0 in
      let v =
        if b = 0 then 0.
        else
          let frac = (float_of_int (rank - below) -. 0.5) /. float_of_int c in
          exp ((float_of_int (b - 1) +. frac) *. log_ratio)
      in
      Float.min (float_of_int t.hi) (Float.max (float_of_int t.lo) v)
    end

  let median t = percentile t 50.0
  let mean t = float_of_int t.sum /. float_of_int (Int.max 1 t.len)

  (* The highest of p99.9 / p99 / p90 (capped at [max_pct]) with at least
     ten samples beyond it, so the tail is a population, not one outlier.
     The cap keeps the percentile fixed for a workload whose sample
     count moves with the program's speed. *)
  let tail t ~max_pct =
    let beyond p = float_of_int t.len *. (1. -. (p /. 100.)) in
    match
      List.find_opt
        (fun p -> p <= max_pct && beyond p >= 10.)
        [ 99.9; 99.0; 90.0 ]
    with
    | Some p -> (p, percentile t p)
    | None -> (50.0, median t)
end

(* exact median of a few values, such as the set-up times of one run *)
let median l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  if Array.length a = 0 then nan else a.(Array.length a / 2)

(* ------------------------------------------------------------------ *)
(* span recorder (traced runs only)                                   *)
(* ------------------------------------------------------------------ *)

module Trace = struct
  type span = {
    id : int;
    name : string;
    parent : int;  (** -1 for a root *)
    workload : string;
    op : int;  (** operation id the span belongs to *)
    start : int64;
    mutable stop : int64;
  }

  let dummy =
    { id = -1; name = ""; parent = -1; workload = ""; op = 0; start = 0L; stop = 0L }

  let buf = ref (Array.make 65536 dummy)
  let count = ref 0
  let stack = ref []
  let workload = ref ""

  let push s =
    if !count = Array.length !buf then begin
      let b = Array.make (2 * !count) dummy in
      Array.blit !buf 0 b 0 !count;
      buf := b
    end;
    !buf.(!count) <- s;
    incr count

  (* Spans are kept in memory; [write] puts them out when the run ends. *)
  let span name ~op f =
    let parent = match !stack with [] -> -1 | p :: _ -> p in
    let s =
      { id = !count; name; parent; workload = !workload; op; start = now (); stop = 0L }
    in
    push s;
    stack := s.id :: !stack;
    let finish () =
      s.stop <- now ();
      stack := List.tl !stack
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e

  let duration s = ns_between s.start s.stop

  (* self time: a span's duration minus what its children cover *)
  let self_times () =
    let child = Array.make !count 0 in
    for i = 0 to !count - 1 do
      let s = !buf.(i) in
      if s.parent >= 0 then child.(s.parent) <- child.(s.parent) + duration s
    done;
    Array.init !count (fun i -> duration !buf.(i) - child.(i))

  (* self-time samples of every span called [name] *)
  let samples name =
    let self = self_times () in
    let out = Samples.create () in
    for i = 0 to !count - 1 do
      if String.equal !buf.(i).name name then Samples.add out self.(i)
    done;
    out

  let write path =
    let self = self_times () in
    let oc = open_out path in
    output_string oc "id\tparent\tworkload\top\tname\tstart_ns\tstop_ns\tself_ns\n";
    for i = 0 to !count - 1 do
      let s = !buf.(i) in
      Printf.fprintf oc "%d\t%d\t%s\t%d\t%s\t%Ld\t%Ld\t%d\n" s.id s.parent s.workload
        s.op s.name s.start s.stop self.(i)
    done;
    close_out oc
end

(* ------------------------------------------------------------------ *)
(* memory and files                                                   *)
(* ------------------------------------------------------------------ *)

(* VmHWM of a process, in MB (the kernel's high-water resident set) *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let ic = open_in path in
  let rec go () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> go ()
    | exception End_of_file -> fail "no VmHWM in %s" path
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

let rec rm_rf p =
  match Unix.lstat p with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Unix.rmdir p
  | _ -> Sys.remove p
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let gc_minor_mb (a : Gc.stat) (b : Gc.stat) =
  (b.Gc.minor_words -. a.Gc.minor_words) *. float_of_int (Sys.word_size / 8)
  /. 1048576.

(* ------------------------------------------------------------------ *)
(* results                                                            *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit : string }

type result = {
  attempted : int;
  failed : int;
  metrics : metric list;
  notes : string list;  (** human-readable lines printed before the JSON *)
}

let m name unit value = { name; value; unit }
let us_of_ns x = x /. 1000.
