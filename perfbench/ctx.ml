(* Run context shared by the workloads: the sample loop, timed calls
   (recorded as spans when the sample is traced), machine-independent
   counters with the per-sample determinism check, and correctness
   accounting. *)

type span = {
  id : int;
  name : string;  (** the metric the span's duration feeds *)
  start : float;  (** seconds since process start *)
  stop : float;
  parent : int;  (** enclosing span id, [-1] at top level *)
  sample : int;
}

type t = {
  seed : int;
  seconds : float;
  trace : bool;
  out_dir : string;
  t0 : float;
  mutable sample : int;  (** current sample id; [-1] during set-up, [0] the warm-up *)
  mutable traced : bool;  (** the current sample records spans *)
  mutable spans : span list;  (** newest first *)
  mutable stack : int list;
  mutable next_id : int;
  mutable cur_times : (string * float) list;  (** timed calls of this sample, newest first *)
  mutable cur_counts : (string * float) list;
  times : (bool * string, float list) Hashtbl.t;
      (** per timed sample, summed by name, keyed by whether it was traced *)
  e2e : (string, float list) Hashtbl.t;  (** untraced samples *)
  e2e_traced : (string, float list) Hashtbl.t;
  units : (string * string, float list) Hashtbl.t;
      (** untraced samples of one unit of an end-to-end metric, keyed by (metric, unit) *)
  final : (string, float) Hashtbl.t;  (** end-to-end values combined from unit estimates *)
  mutable ref_counts : (bool * (string * float) list) list;  (** first sample of each mode *)
  mutable attempted : int;
  mutable failed : int;
  mutable setup : float list;
}

let create ~seed ~seconds ~trace ~out_dir =
  {
    seed;
    seconds;
    trace;
    out_dir;
    t0 = Unix.gettimeofday ();
    sample = -1;
    traced = trace;
    spans = [];
    stack = [];
    next_id = 0;
    cur_times = [];
    cur_counts = [];
    times = Hashtbl.create 64;
    e2e = Hashtbl.create 16;
    e2e_traced = Hashtbl.create 16;
    units = Hashtbl.create 64;
    final = Hashtbl.create 16;
    ref_counts = [];
    attempted = 0;
    failed = 0;
    setup = [];
  }

let now c = Unix.gettimeofday () -. c.t0

let push tbl k v =
  Hashtbl.replace tbl k (v :: Option.value ~default:[] (Hashtbl.find_opt tbl k))

let add_time c name d = c.cur_times <- (name, d) :: c.cur_times

(* A span covering [start, stop] that the benchmark did not time itself
   (a pass duration reported by the pass manager): it is placed under
   the innermost open span. *)
let derived_span c name ~start ~stop =
  add_time c name (stop -. start);
  if c.traced then begin
    let parent = match c.stack with p :: _ -> p | [] -> -1 in
    c.spans <- { id = c.next_id; name; start; stop; parent; sample = c.sample } :: c.spans;
    c.next_id <- c.next_id + 1
  end

(* Time one call into a layer. The duration is summed under [name] for
   this sample; in a traced sample it is also kept as a span. *)
let timed c name f =
  if not c.traced then begin
    let t = Unix.gettimeofday () in
    let r = f () in
    add_time c name (Unix.gettimeofday () -. t);
    r
  end
  else begin
    let id = c.next_id in
    c.next_id <- id + 1;
    let parent = match c.stack with p :: _ -> p | [] -> -1 in
    c.stack <- id :: c.stack;
    let start = now c in
    let finish () =
      let stop = now c in
      c.stack <- List.tl c.stack;
      c.spans <- { id; name; start; stop; parent; sample = c.sample } :: c.spans;
      add_time c name (stop -. start)
    in
    match f () with
    | r ->
        finish ();
        r
    | exception e ->
        finish ();
        raise e
  end

let count c name v =
  let prev = Option.value ~default:0. (List.assoc_opt name c.cur_counts) in
  c.cur_counts <- (name, prev +. v) :: List.remove_assoc name c.cur_counts

let check c ok what =
  c.attempted <- c.attempted + 1;
  if not ok then begin
    c.failed <- c.failed + 1;
    Printf.eprintf "check failed: %s\n%!" what
  end

(* An end-to-end sample value: kept apart for traced samples, which
   only serve the tracing-overhead estimate, and dropped for the
   warm-up sample. *)
let e2e c name v =
  if c.sample > 0 then push (if c.traced then c.e2e_traced else c.e2e) name v

(* One untraced, non-warm-up timing of a unit of an end-to-end metric:
   one NF's synthesis, one engine's stepping loop. A unit is short and
   repeats many times in a run, so its estimate comes from many
   samples. *)
let unit_time c metric unit_ dt =
  if c.sample > 0 && not c.traced then push c.units (metric, unit_) dt

(* Each unit of [metric] with the estimate of its time over the run. *)
let unit_estimates c metric =
  Hashtbl.fold
    (fun (m, u) l acc -> if m = metric then (u, Stats.fastest l) :: acc else acc)
    c.units []
  |> List.sort compare

let set_final c name v = Hashtbl.replace c.final name v

(* Set each (phase, figure) pair to the sum of the phase's unit
   estimates. *)
let set_sums c pairs =
  List.iter
    (fun (phase, figure) ->
      let v = List.fold_left (fun acc (_, t) -> acc +. t) 0. (unit_estimates c phase) in
      set_final c phase v;
      set_final c figure v)
    pairs

(* Sum this sample's timed calls by name. *)
let flush_times c ~traced =
  let sums = Hashtbl.create 64 in
  List.iter
    (fun (k, d) ->
      Hashtbl.replace sums k (d +. Option.value ~default:0. (Hashtbl.find_opt sums k)))
    c.cur_times;
  Hashtbl.iter (fun k v -> push c.times (traced, k) v) sums;
  c.cur_times <- []

(* One timed set-up. Each repetition starts with an empty minor heap
   and collects its own allocation inside the timed window. Calls timed
   inside set-up count as traced samples of their layer metrics. *)
let setup c f =
  Gc.minor ();
  let t = Unix.gettimeofday () in
  let r = f () in
  Gc.minor ();
  c.setup <- (Unix.gettimeofday () -. t) :: c.setup;
  flush_times c ~traced:true;
  r

let end_sample c =
  if c.sample > 0 then flush_times c ~traced:c.traced else c.cur_times <- [];
  let counts = List.sort compare c.cur_counts in
  (match List.assoc_opt c.traced c.ref_counts with
  | None -> c.ref_counts <- (c.traced, counts) :: c.ref_counts
  | Some first ->
      let diff = Stats.counter_diff first counts in
      check c (diff = [])
        (Printf.sprintf "sample %d repeats counters of its first sample (differ: %s)" c.sample
           (String.concat ", " diff)));
  c.cur_counts <- []

(* The closed loop: one warm-up sample (checked, not timed into the
   estimates or medians), then samples until [seconds] have been measured and at
   least [min_samples] were taken. Before every sample the workload's
   set-up runs once more, timed and discarded, so the set-up times
   spread over the whole run like the samples do. Each sample starts
   from a compacted heap, so the collector's work inside a sample does
   not depend on what earlier samples left behind. In a traced run
   samples alternate untraced/traced, so both kinds exist for the
   overhead estimate. *)
let loop c ~min_samples ~setup:f_setup f =
  c.sample <- 0;
  c.traced <- false;
  f ~first:true;
  end_sample c;
  let started = Unix.gettimeofday () in
  let k = ref 1 in
  while
    Unix.gettimeofday () -. started < c.seconds
    || !k <= (if c.trace then 2 * min_samples else min_samples)
  do
    ignore (setup c f_setup);
    c.sample <- !k;
    c.traced <- c.trace && !k mod 2 = 0;
    Gc.compact ();
    f ~first:false;
    end_sample c;
    incr k
  done;
  c.traced <- c.trace

(* Median over traced samples of a timed call's per-sample total, in ms. *)
let layer_ms c name =
  match Hashtbl.find_opt c.times (true, name) with
  | Some (_ :: _ as l) -> 1e3 *. Stats.median l
  | _ -> 0.

let e2e_samples c name = Option.value ~default:[] (Hashtbl.find_opt c.e2e name)
let counters c = Option.value ~default:[] (List.assoc_opt c.trace c.ref_counts)
let counter c name = Option.value ~default:0. (List.assoc_opt name (counters c))

let peak_heap_mb () =
  let s = Gc.quick_stat () in
  float_of_int (s.Gc.top_heap_words * (Sys.word_size / 8)) /. (1024. *. 1024.)

(* Self time: a span's duration minus the part its direct children
   cover (children of one parent never overlap: calls nest). *)
let self_times spans =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (s.stop -. s.start +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    spans;
  List.map
    (fun s -> (s, s.stop -. s.start -. Option.value ~default:0. (Hashtbl.find_opt child s.id)))
    spans
