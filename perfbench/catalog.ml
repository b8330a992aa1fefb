(* The metric catalogue: every end-to-end and per-layer metric with its
   unit, its direction, and — for a layer metric — the end-to-end
   metric and workload it should move. BENCHMARK.json lists the same
   names, units and directions; [run.py --selfcheck] compares them. *)

type metric = {
  name : string;
  unit_ : string;
  better : [ `Lower | `Higher ];
  moves : string;  (** end-to-end metric this layer metric should move *)
  on : string;  (** workload on which it moves it *)
}

let workloads =
  [
    ( "synth",
      "phase1..4_s=cold sweep, warm replay, Table 2 sweep, invariant set: analyzer, cache, \
       explorer+solver+slicer, verifier; one moves without the others" );
    ( "dataplane",
      "phase1..4_s=s per 1M pkts: 14 engines random, 14 churn, 3-NF chain, 2-shard \
       nat+portknock; churn grows flow tables, random keeps them small" );
  ]

let e2e =
  [
    ("setup_s", "s", `Lower, 0.25);
    ("phase1_s", "s", `Lower, 0.25);
    ("phase2_s", "s", `Lower, 0.25);
    ("phase3_s", "s", `Lower, 0.25);
    ("phase4_s", "s", `Lower, 0.25);
    ("peak_heap_mb", "MB", `Lower, 0.2);
  ]

let nfs = Nfs.Corpus.names
let passes = [ "canonicalize"; "classify"; "slice"; "explore"; "refine"; "analyze"; "compile" ]

(* Pass name -> the layer metric its cold-sweep time feeds. *)
let pass_metric = function
  | "canonicalize" -> "pipeline.canonicalize_ms"
  | "classify" -> "statealyzer.classify_ms"
  | "slice" -> "slicing.slice_ms"
  | "explore" -> "symexec.explore_ms"
  | "refine" -> "core.refine_ms"
  | "analyze" -> "analysis.analyze_ms"
  | "compile" -> "runtime.compile_ms"
  | p -> invalid_arg ("Catalog.pass_metric: " ^ p)

let explore_rows = [ "snort"; "dpi"; "rangefw"; "balance" ]
let shard_nfs = [ "nat"; "portknock" ]

(* The invariant set of the synth workload's symbolic part: id,
   chain, property, known answer. *)
let invariants =
  [
    ("snort-firewall.ttl", [ "snort"; "firewall" ], "ip_ttl<=0", `Proven);
    ("snort-firewall.dport80", [ "snort"; "firewall" ], "dport=80", `Violated);
    ("firewall-nat-snort.dport80", [ "firewall"; "nat"; "snort" ], "dport=80", `Violated);
  ]

let chain = [ "firewall"; "nat"; "snort" ]

let m ?(better = `Lower) name unit_ moves on = { name; unit_; better; moves; on }

let layer =
  let cold n = m n "ms" "phase1_s" "synth" in
  let cold_count ?better n = m ?better n "count" "phase1_s" "synth" in
  let t2 n = m n "ms" "phase3_s" "synth" in
  let t2_count ?better n = m ?better n "count" "phase3_s" "synth" in
  let dp ?better n unit_ = m ?better n unit_ "phase1_s,phase2_s,phase3_s,phase4_s" "dataplane" in
  List.concat
    [
      List.map (fun p -> cold (pass_metric p)) passes;
      List.map (fun nf -> cold ("analysis.analyze_ms." ^ nf)) nfs;
      List.map cold
        [
          "analysis.lint_pre_ms"; "analysis.minimize_ms"; "core.equiv_gate_ms";
          "analysis.lint_post_ms";
        ];
      [
        cold_count "core.equiv_gate_pkts";
        cold_count "analysis.entries_in";
        cold_count "analysis.entries_out";
        cold_count ~better:`Higher "analysis.rewrites";
        m "symexec.solver_calls" "count" "phase1_s,phase3_s" "synth";
        m "pipeline.store_bytes" "bytes" "phase2_s" "synth";
        m ~better:`Higher "pipeline.warm_hit_pct" "%" "phase2_s" "synth";
      ];
      List.map (fun p -> m ("pipeline.warm_load_ms." ^ p) "ms" "phase2_s" "synth") passes;
      List.concat_map
        (fun nf -> [ t2 ("symexec.explore_orig_ms." ^ nf); t2 ("symexec.explore_slice_ms." ^ nf) ])
        explore_rows;
      [
        t2 "symexec.explore_orig_ms";
        t2 "symexec.explore_slice_ms";
        t2_count "symexec.paths_orig";
        t2_count "symexec.paths_slice";
        t2_count "symexec.forks";
        t2_count "symexec.merges";
        t2_count ~better:`Higher "symexec.prunes";
        t2_count "symexec.overflows";
        m ~better:`Higher "symexec.solver_cache_hit_pct" "%" "phase3_s" "synth";
        t2 "symexec.solver_ms";
        t2 "cfg.joins_ms";
        t2 "cfg.joins_nomerge_ms";
        m "cfg.joins_share_pct" "%" "phase3_s" "synth";
      ];
      List.map
        (fun (id, _, _, _) -> m ("verify.invariant_ms." ^ id) "ms" "phase4_s" "synth")
        invariants;
      [ m "verify.classes" "count" "phase4_s" "synth" ];
      List.map
        (fun nf ->
          m ~better:`Higher ("runtime.engine_random_mpps." ^ nf) "Mpps" "phase1_s" "dataplane")
        nfs;
      List.map
        (fun nf ->
          m ~better:`Higher ("runtime.engine_churn_mpps." ^ nf) "Mpps" "phase2_s" "dataplane")
        nfs;
      [
        m "runtime.words_per_pkt.random" "words" "phase1_s" "dataplane";
        m "runtime.words_per_pkt.churn" "words" "phase2_s" "dataplane";
        dp ~better:`Higher "runtime.fsm_hits" "count";
        dp ~better:`Higher "runtime.index_hits" "count";
        dp ~better:`Higher "runtime.tree_hits" "count";
        dp "runtime.scan_hits" "count";
        dp "runtime.leaf_tests" "count";
        dp "runtime.misses" "count";
        m "runtime.flow_entries" "count" "phase2_s,peak_heap_mb" "dataplane";
        m "runtime.evictions" "count" "phase2_s,peak_heap_mb" "dataplane";
        m "runtime.chain_link_ms" "ms" "setup_s" "dataplane";
        m ~better:`Higher "runtime.chain_fused_walks" "count" "phase3_s" "dataplane";
        m "runtime.chain_handoffs" "count" "phase3_s" "dataplane";
        m ~better:`Higher "runtime.chain_delivered" "count" "phase3_s" "dataplane";
        m "runtime.shard_create_ms" "ms" "setup_s" "dataplane";
      ];
      List.map
        (fun nf -> m ("runtime.shard_deferred_pct." ^ nf) "%" "phase4_s" "dataplane")
        shard_nfs;
      [ m "runtime.shard_batches" "count" "phase4_s" "dataplane" ];
      List.map
        (fun nf -> m ~better:`Higher ("runtime.shard_speedup." ^ nf) "x" "phase4_s" "dataplane")
        shard_nfs;
      (* Each workload's end-to-end figures under their own names
         (phase1_s..phase4_s carry them), from the untraced samples of
         the traced run. *)
      [
        m "synth_cold_s" "s" "phase1_s" "synth";
        m "synth_warm_s" "s" "phase2_s" "synth";
        m "table2_s" "s" "phase3_s" "synth";
        m "verify_s" "s" "phase4_s" "synth";
        m ~better:`Higher "engine_random_mpps" "Mpps" "phase1_s" "dataplane";
        m ~better:`Higher "engine_churn_mpps" "Mpps" "phase2_s" "dataplane";
        m ~better:`Higher "chain_mpps" "Mpps" "phase3_s" "dataplane";
        m ~better:`Higher "shard_mpps" "Mpps" "phase4_s" "dataplane";
        m "failed_ops_pct" "%" "all" "synth,dataplane";
        m "trace.overhead_pct" "%" "phase1_s" "synth,dataplane";
      ];
    ]

(* Counters that must repeat exactly between two runs on one seed. *)
let machine_independent =
  [
    "core.equiv_gate_pkts"; "analysis.entries_in"; "analysis.entries_out"; "analysis.rewrites";
    "symexec.solver_calls"; "pipeline.warm_hit_pct"; "symexec.paths_orig";
    "symexec.paths_slice"; "symexec.forks"; "symexec.merges"; "symexec.prunes";
    "symexec.overflows"; "symexec.solver_cache_hit_pct"; "verify.classes"; "runtime.fsm_hits";
    "runtime.index_hits"; "runtime.tree_hits"; "runtime.scan_hits"; "runtime.leaf_tests";
    "runtime.misses"; "runtime.flow_entries"; "runtime.evictions"; "runtime.chain_fused_walks";
    "runtime.chain_handoffs"; "runtime.chain_delivered"; "runtime.shard_batches";
    "runtime.shard_deferred_pct.nat"; "runtime.shard_deferred_pct.portknock";
  ]

let better_string = function `Lower -> "lower" | `Higher -> "higher"

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* The catalogue as JSON, in BENCHMARK.json's shape plus the mapping
   fields BENCHMARK.json has no room for. *)
let to_json () =
  let b = Buffer.create 16384 in
  let add = Buffer.add_string b in
  add "{\n  \"workloads\": [\n";
  add
    (String.concat ",\n"
       (List.map
          (fun (n, why) ->
            Printf.sprintf "    {\"name\": %s, \"why\": %s}" (json_string n) (json_string why))
          workloads));
  add "\n  ],\n  \"end_to_end\": [\n";
  add
    (String.concat ",\n"
       (List.map
          (fun (n, u, bt, bound) ->
            Printf.sprintf "    {\"name\": %s, \"unit\": %s, \"better\": %s, \"bound\": %g}"
              (json_string n) (json_string u)
              (json_string (better_string bt))
              bound)
          e2e));
  add "\n  ],\n  \"per_layer\": [\n";
  add
    (String.concat ",\n"
       (List.map
          (fun x ->
            Printf.sprintf
              "    {\"name\": %s, \"unit\": %s, \"better\": %s, \"moves\": %s, \"on\": %s, \
               \"counter\": %b}"
              (json_string x.name) (json_string x.unit_)
              (json_string (better_string x.better))
              (json_string x.moves) (json_string x.on)
              (List.mem x.name machine_independent))
          layer));
  add "\n  ]\n}\n";
  Buffer.contents b
