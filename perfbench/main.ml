(* The repository benchmark: one process runs one named workload for a
   fixed time and prints every metric by name and unit, then one JSON
   result line.

     main.exe --workload synth|dataplane --seed N --seconds S --trace 0|1
     main.exe --describe        # the metric catalogue as JSON

   With --trace 0 the result carries the end-to-end metrics; with
   --trace 1 the per-layer metrics, from a run whose samples alternate
   untraced and traced, with the spans written to the output
   directory. *)

let usage () =
  prerr_endline
    "usage: main.exe --workload synth|dataplane --seed N --seconds S --trace 0|1 \
     [--out DIR] | --describe";
  exit 2

let workloads =
  [ ("synth", Wl_synth.run); ("dataplane", Wl_dataplane.run) ]

let num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else invalid_arg "non-finite metric value"

let unit_of name =
  match List.find_opt (fun (n, _, _, _) -> n = name) Catalog.e2e with
  | Some (_, u, _, _) -> u
  | None -> (
      match List.find_opt (fun (m : Catalog.metric) -> m.Catalog.name = name) Catalog.layer with
      | Some m -> m.Catalog.unit_
      | None -> "?")

let median_or_zero = function [] -> 0. | l -> Stats.median l

(* A figure's value: combined from its units' estimates where the
   workload measures it by units, else the median of its samples. *)
let value (c : Ctx.t) name =
  match Hashtbl.find_opt c.Ctx.final name with
  | Some v -> v
  | None -> median_or_zero (Ctx.e2e_samples c name)

(* The value of one per-layer metric at the end of a traced run. *)
let layer_value (c : Ctx.t) name =
  let e2e = value c in
  let has_prefix p =
    String.length name > String.length p && String.sub name 0 (String.length p) = p
  in
  match name with
  | "failed_ops_pct" ->
      if c.Ctx.attempted = 0 then 0.
      else 100. *. float_of_int c.Ctx.failed /. float_of_int c.Ctx.attempted
  | "trace.overhead_pct" -> (
      match (Ctx.e2e_samples c "phase1_s", Hashtbl.find_opt c.Ctx.e2e_traced "phase1_s") with
      | (_ :: _ as plain), Some (_ :: _ as traced) ->
          100. *. ((Stats.median traced /. Stats.median plain) -. 1.)
      | _ -> 0.)
  | "symexec.solver_cache_hit_pct" ->
      let h = Ctx.counter c "symexec.solver_cache_hits"
      and m = Ctx.counter c "symexec.solver_cache_misses" in
      if h +. m = 0. then 0. else 100. *. h /. (h +. m)
  | "cfg.joins_share_pct" ->
      let t2 = e2e "table2_s" in
      if t2 = 0. then 0. else 100. *. Ctx.layer_ms c "cfg.joins_ms" /. (1e3 *. t2)
  | _ when has_prefix "runtime.shard_speedup." ->
      let nf = String.sub name 22 (String.length name - 22) in
      let single = e2e ("runtime.engine_churn_mpps." ^ nf) in
      if single = 0. then 0. else e2e ("runtime.shard_mpps." ^ nf) /. single
  | _ when Hashtbl.mem c.Ctx.final name || Ctx.e2e_samples c name <> [] -> e2e name
  | _ when unit_of name = "ms" -> Ctx.layer_ms c name
  | _ -> Ctx.counter c name

let describe_samples ?value name unit_ samples =
  let n = List.length samples in
  let pct =
    match Stats.supported_percentile samples with
    | Some (p, v) -> Printf.sprintf "p%.1f %s" p (num v)
    | None -> "no percentile with 10 samples beyond"
  in
  let value = match value with Some v -> "value " ^ num v ^ ", " | None -> "" in
  Printf.printf "%-22s %-5s %smedian %-22s n=%-3d %s\n" name unit_ value
    (num (Stats.median samples)) n pct

let write_detail (c : Ctx.t) ~workload =
  let file =
    Filename.concat c.Ctx.out_dir
      (Printf.sprintf "%s-seed%d-trace%d.json" workload c.Ctx.seed (if c.Ctx.trace then 1 else 0))
  in
  let oc = open_out file in
  let js = Catalog.json_string in
  let samples tbl =
    Hashtbl.fold
      (fun k l acc ->
        Printf.sprintf "%s: [%s]" (js k) (String.concat ", " (List.rev_map num l)) :: acc)
      tbl []
    |> List.sort compare |> String.concat ",\n    "
  in
  Printf.fprintf oc "{\n  \"workload\": %s,\n  \"seed\": %d,\n  \"setup_s\": [%s],\n" (js workload)
    c.Ctx.seed
    (String.concat ", " (List.rev_map num c.Ctx.setup));
  Printf.fprintf oc "  \"samples\": {\n    %s\n  },\n" (samples c.Ctx.e2e);
  Printf.fprintf oc "  \"traced_samples\": {\n    %s\n  },\n" (samples c.Ctx.e2e_traced);
  let units = Hashtbl.create 64 in
  Hashtbl.iter (fun (m, u) l -> Hashtbl.replace units (m ^ "/" ^ u) l) c.Ctx.units;
  Printf.fprintf oc "  \"unit_samples\": {\n    %s\n  },\n" (samples units);
  Printf.fprintf oc "  \"counters\": {%s},\n"
    (String.concat ", "
       (List.map (fun (k, v) -> Printf.sprintf "%s: %s" (js k) (num v)) (Ctx.counters c)));
  Printf.fprintf oc "  \"spans\": [\n%s\n  ]\n}\n"
    (String.concat ",\n"
       (List.rev_map
          (fun ((s : Ctx.span), self) ->
            Printf.sprintf
              "    {\"id\": %d, \"name\": %s, \"start\": %s, \"end\": %s, \"self\": %s, \
               \"parent\": %d, \"sample\": %d}"
              s.Ctx.id (js s.Ctx.name) (num s.Ctx.start) (num s.Ctx.stop) (num self) s.Ctx.parent
              s.Ctx.sample)
          (Ctx.self_times c.Ctx.spans)));
  close_out oc;
  file

let () =
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 4 * 1024 * 1024 };
  let args = Array.to_list Sys.argv |> List.tl in
  if args = [ "--describe" ] then begin
    print_string (Catalog.to_json ());
    exit 0
  end;
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((k, v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int_of k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let workload = get "--workload" in
  let run = match List.assoc_opt workload workloads with Some f -> f | None -> usage () in
  let trace = match get "--trace" with "0" -> false | "1" -> true | _ -> usage () in
  let seconds = int_of "--seconds" in
  if seconds < 1 then usage ();
  let out_dir =
    Option.value ~default:(Filename.concat "perfbench" "_out") (List.assoc_opt "--out" opts)
  in
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let c = Ctx.create ~seed:(int_of "--seed") ~seconds:(float_of_int seconds) ~trace ~out_dir in
  run c;
  let setup_s = Stats.median c.Ctx.setup in
  let heap = Ctx.peak_heap_mb () in
  let detail = write_detail c ~workload in
  Printf.printf "workload %s, seed %d, %d set-up repetitions, checks %d/%d agree, detail in %s\n"
    workload c.Ctx.seed (List.length c.Ctx.setup) (c.Ctx.attempted - c.Ctx.failed) c.Ctx.attempted
    detail;
  describe_samples "setup_s" "s" c.Ctx.setup;
  List.iter
    (fun name ->
      match Ctx.e2e_samples c name with
      | [] -> ()
      | l -> describe_samples ?value:(Hashtbl.find_opt c.Ctx.final name) name (unit_of name) l)
    [
      "phase1_s"; "phase2_s"; "phase3_s"; "phase4_s"; "synth_cold_s"; "synth_warm_s"; "table2_s"; "verify_s";
      "engine_random_mpps"; "engine_churn_mpps"; "chain_mpps"; "shard_mpps";
    ];
  Printf.printf "%-22s %-5s %s\n" "peak_heap_mb" "MB" (num heap);
  Printf.printf "%-22s %-5s %s\n" "failed_ops_pct" "%" (num (layer_value c "failed_ops_pct"));
  let metrics =
    if trace then
      List.map
        (fun (m : Catalog.metric) -> (m.Catalog.name, m.Catalog.unit_, layer_value c m.Catalog.name))
        Catalog.layer
    else
      List.map
        (fun (name, unit_, _, _) ->
          let v =
            match name with
            | "setup_s" -> setup_s
            | "peak_heap_mb" -> heap
            | _ -> value c name
          in
          (name, unit_, v))
        Catalog.e2e
  in
  let correct = c.Ctx.failed = 0 && c.Ctx.attempted > 0 in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    c.Ctx.attempted c.Ctx.failed
    (String.concat ", "
       (List.map
          (fun (n, u, v) ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Catalog.json_string n) (num v)
              (Catalog.json_string u))
          metrics));
  exit 0
