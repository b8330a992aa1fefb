(* Workload [dataplane]: pre-generated packets through compiled plans —
   one engine per corpus NF on random and on churn traffic, the linked
   firewall,nat,snort chain on both, and 2-shard runs of nat and
   portknock on churn. Only stepping is timed. *)

open Nfactor
module R = Nfactor_runtime

let n_pkts = 5_000
let churn_flows = 100_000
let shard_batch = 4096
let check_prefix = 2000

(* Passes over all stepping loops per sample. A pass takes about 0.2 s
   and a set-up about 0.1 s, so four passes give each loop about three
   times the samples per run that one pass per set-up would. *)
let loop_reps = 4

type nf = {
  name : string;
  model : Model.t;
  store : Model_interp.store;
  plan : R.Compile.t;
}

let churn_stream ~seed =
  let ch = Packet.Traffic.churn_gen ~concurrent:churn_flows ~seed () in
  Array.init n_pkts (fun _ -> Packet.Traffic.churn_next ch)

let setup c () =
  let m = Pipeline.Manager.create () in
  let nfs =
    List.map
      (fun (e : Nfs.Corpus.entry) ->
        let name = e.Nfs.Corpus.name in
        let ex = Pipeline.Manager.extract_source m ~name (e.Nfs.Corpus.source ()) in
        let plan = Ctx.timed c "runtime.compile_ms" (fun () -> Pipeline.Manager.plan m ex) in
        { name; model = ex.Extract.model; store = Model_interp.initial_store ex; plan })
      Nfs.Corpus.all
  in
  let find n = List.find (fun nf -> nf.name = n) nfs in
  let nodes = List.map (fun n -> let nf = find n in (n, nf.model, nf.store)) Catalog.chain in
  let cp = Ctx.timed c "runtime.chain_link_ms" (fun () -> R.Chainplan.link nodes) in
  List.iter
    (fun n ->
      let nf = find n in
      let sh =
        Ctx.timed c "runtime.shard_create_ms" (fun () ->
            R.Shard.create ~nshards:2 nf.model ~config:nf.store)
      in
      R.Shard.shutdown sh)
    Catalog.shard_nfs;
  (nfs, nodes, cp)

let mpps secs = float_of_int n_pkts /. secs /. 1e6

(* Time one stepping loop. The minor heap is emptied before it and
   collected again inside the timed window, so every loop pays for
   collecting exactly its own allocation. Returns the seconds and the
   minor words allocated. *)
let timed_loop c name f =
  Gc.minor ();
  let w0 = Gc.minor_words () in
  let start = Ctx.now c in
  let t = Unix.gettimeofday () in
  f ();
  let words = Gc.minor_words () -. w0 in
  Gc.minor ();
  let dt = Unix.gettimeofday () -. t in
  Ctx.derived_span c name ~start ~stop:(start +. dt);
  Ctx.unit_time c "loops" name dt;
  (dt, words)

let count_stats c (s : R.Engine.stats) =
  let f name v = Ctx.count c name (float_of_int v) in
  f "runtime.fsm_hits" s.R.Engine.fsm_hits;
  f "runtime.index_hits" s.R.Engine.index_hits;
  f "runtime.tree_hits" s.R.Engine.tree_hits;
  f "runtime.scan_hits" s.R.Engine.scan_hits;
  f "runtime.leaf_tests" s.R.Engine.leaf_tests;
  f "runtime.misses" (s.R.Engine.miss_no_config + s.R.Engine.miss_no_match)

let dict_entries store =
  Model_interp.Smap.fold
    (fun _ v acc -> match v with Symexec.Value.Dict l -> acc + List.length l | _ -> acc)
    store 0

let outputs_equal a b = List.length a = List.length b && List.for_all2 Packet.Pkt.equal a b
let stores_equal = Model_interp.Smap.equal Symexec.Value.equal

(* Engine vs the reference interpreter on a stream prefix: outputs and
   final store. *)
let check_engine c nf kind pkts =
  let pkts = Array.sub pkts 0 check_prefix in
  let ref_store, ref_out = Model_interp.run nf.model ~store:nf.store ~pkts:(Array.to_list pkts) in
  let eng = R.Engine.create nf.plan ~store:nf.store in
  let got = R.Engine.run_batch eng pkts in
  Ctx.check c
    (List.for_all2 (fun r (o : R.Engine.outcome) -> outputs_equal r o.R.Engine.outputs) ref_out
       (Array.to_list got)
    && stores_equal ref_store (R.Engine.snapshot eng))
    (Printf.sprintf "%s/%s: engine equals the interpreter on %d packets" nf.name kind check_prefix)

(* The chain vs the interpreter chain: outputs and per-hop stores. *)
let check_chain c nodes cp kind pkts =
  let pkts = Array.sub pkts 0 check_prefix in
  let ref_chain =
    Verify.Network.chain (List.map (fun (id, m, s) -> Verify.Network.node id m s) nodes)
  in
  let ref_results = Verify.Network.run ref_chain (Array.to_list pkts) in
  let eng = R.Chainengine.create cp in
  let outs = R.Chainengine.run_batch eng pkts in
  Ctx.check c
    (List.for_all2 (fun (r, _) got -> outputs_equal r got) ref_results (Array.to_list outs)
    && List.for_all2
         (fun (n : Verify.Network.node) (_, got) -> stores_equal n.Verify.Network.store got)
         ref_chain.Verify.Network.nodes (R.Chainengine.snapshot_hops eng))
    (Printf.sprintf "chain/%s: linked chain equals the interpreter chain on %d packets" kind
       check_prefix)

(* 2 shards vs one engine on the whole churn stream: outputs, merged
   store and merged counters. *)
let check_shard c nf batches =
  let pkts = Array.concat (Array.to_list batches) in
  let eng = R.Engine.create nf.plan ~store:nf.store in
  let expected = R.Engine.run_batch eng pkts in
  let sh = R.Shard.create ~nshards:2 nf.model ~config:nf.store in
  Fun.protect
    ~finally:(fun () -> R.Shard.shutdown sh)
    (fun () ->
      let got = Array.concat (List.map (R.Shard.run_batch sh) (Array.to_list batches)) in
      Ctx.check c
        (Array.for_all2
           (fun (e : R.Engine.outcome) (g : R.Engine.outcome) ->
             e.R.Engine.fired = g.R.Engine.fired
             && outputs_equal e.R.Engine.outputs g.R.Engine.outputs)
           expected got)
        (Printf.sprintf "%s: 2-shard outputs equal one engine's" nf.name);
      Ctx.check c
        (stores_equal (R.Engine.snapshot eng) (R.Shard.snapshot sh))
        (Printf.sprintf "%s: 2-shard merged store equals one engine's" nf.name);
      Ctx.check c
        (R.Engine.stats_json_of ~nf:nf.name ~plan:nf.plan ~evictions:0 (R.Shard.merged_stats sh)
        = R.Engine.stats_json eng)
        (Printf.sprintf "%s: 2-shard merged counters equal one engine's" nf.name))

let run (c : Ctx.t) =
  let seed = c.Ctx.seed in
  let random = Array.of_list (Packet.Traffic.random_stream ~seed ~n:n_pkts ()) in
  let churn = churn_stream ~seed in
  let batches =
    Array.init
      ((n_pkts + shard_batch - 1) / shard_batch)
      (fun i -> Array.sub churn (i * shard_batch) (min shard_batch (n_pkts - (i * shard_batch))))
  in
  let nfs, nodes, cp = Ctx.setup c (setup c) in
  Ctx.loop c ~min_samples:4 ~setup:(setup c) (fun ~first ->
      for rep = 1 to loop_reps do
        (* Counters describe one pass: later passes' counts are dropped. *)
        let counts = c.Ctx.cur_counts in
        let traced = c.Ctx.traced in
        let words_r = ref 0. and words_c = ref 0. in
        let rates kind pkts words =
          List.map
            (fun nf ->
              let eng = R.Engine.create nf.plan ~store:nf.store in
              let dt, w =
                timed_loop c (Printf.sprintf "runtime.engine_%s_mpps.%s" kind nf.name) (fun () ->
                    Array.iter (R.Engine.step_count eng) pkts)
              in
              words := !words +. w;
              count_stats c eng.R.Engine.stats;
              if traced && kind = "churn" then
                Ctx.count c "runtime.flow_entries"
                  (float_of_int (dict_entries (R.Engine.snapshot eng)));
              Ctx.count c "runtime.evictions" (float_of_int (R.Engine.evictions eng));
              (nf.name, mpps dt))
            nfs
        in
        let eng_r = rates "random" random words_r in
        let eng_c = rates "churn" churn words_c in
        let per_pkt words = !words /. float_of_int (n_pkts * List.length nfs) in
        Ctx.e2e c "runtime.words_per_pkt.random" (per_pkt words_r);
        Ctx.e2e c "runtime.words_per_pkt.churn" (per_pkt words_c);
        let chain kind pkts =
          let eng = R.Chainengine.create cp in
          let dt, _ =
            timed_loop c ("chain_mpps." ^ kind) (fun () ->
                Array.iter (fun p -> ignore (R.Chainengine.step eng p)) pkts)
          in
          Ctx.count c "runtime.chain_fused_walks" (float_of_int eng.R.Chainengine.fused_walks);
          Ctx.count c "runtime.chain_handoffs" (float_of_int eng.R.Chainengine.handoffs);
          Ctx.count c "runtime.chain_delivered" (float_of_int (R.Chainengine.delivered eng));
          mpps dt
        in
        let chain_r = chain "random" random in
        let chain_c = chain "churn" churn in
        let shard =
          List.map
            (fun n ->
              let nf = List.find (fun nf -> nf.name = n) nfs in
              let sh = R.Shard.create ~nshards:2 nf.model ~config:nf.store in
              Fun.protect
                ~finally:(fun () -> R.Shard.shutdown sh)
                (fun () ->
                  let dt, _ =
                    timed_loop c ("shard_mpps." ^ n) (fun () ->
                        Array.iter (R.Shard.run_batch_count sh) batches)
                  in
                  Ctx.count c
                    ("runtime.shard_deferred_pct." ^ n)
                    (100. *. float_of_int (R.Shard.deferred sh) /. float_of_int n_pkts);
                  Ctx.count c "runtime.shard_batches" (float_of_int (R.Shard.batches sh));
                  (n, mpps dt)))
            Catalog.shard_nfs
        in
        let g_r = Stats.geomean (List.map snd eng_r) and g_c = Stats.geomean (List.map snd eng_c) in
        let g_chain = Stats.geomean [ chain_r; chain_c ]
        and g_shard = Stats.geomean (List.map snd shard) in
        Ctx.e2e c "engine_random_mpps" g_r;
        Ctx.e2e c "engine_churn_mpps" g_c;
        Ctx.e2e c "chain_mpps" g_chain;
        Ctx.e2e c "shard_mpps" g_shard;
        (* Seconds per million packets: engines on random traffic, on
           churn traffic, the chain on both, the 2-shard runs. *)
        Ctx.e2e c "phase1_s" (1. /. g_r);
        Ctx.e2e c "phase2_s" (1. /. g_c);
        Ctx.e2e c "phase3_s" (1. /. g_chain);
        Ctx.e2e c "phase4_s" (1. /. g_shard);
        List.iter (fun (n, r) -> Ctx.e2e c ("runtime.engine_random_mpps." ^ n) r) eng_r;
        List.iter (fun (n, r) -> Ctx.e2e c ("runtime.engine_churn_mpps." ^ n) r) eng_c;
        List.iter (fun (n, r) -> Ctx.e2e c ("runtime.shard_mpps." ^ n) r) shard;
        if rep > 1 then c.Ctx.cur_counts <- counts
      done;
      if first then begin
        List.iter
          (fun nf ->
            check_engine c nf "random" random;
            check_engine c nf "churn" churn)
          nfs;
        check_chain c nodes cp "random" random;
        check_chain c nodes cp "churn" churn;
        List.iter
          (fun n -> check_shard c (List.find (fun nf -> nf.name = n) nfs) batches)
          Catalog.shard_nfs
      end);
  (* The reported rates come from each stepping loop's estimate over the
     run, combined as the per-sample figures above are. *)
  let est = Ctx.unit_estimates c "loops" in
  let rate name = mpps (List.assoc name est) in
  let per_nf ~loop prefix names =
    List.map
      (fun n ->
        let r = rate (loop ^ n) in
        Ctx.set_final c (prefix ^ n) r;
        r)
      names
  in
  let names = List.map (fun nf -> nf.name) nfs in
  let engines kind =
    let prefix = Printf.sprintf "runtime.engine_%s_mpps." kind in
    Stats.geomean (per_nf ~loop:prefix prefix names)
  in
  let g_r = engines "random" and g_c = engines "churn" in
  let g_shard = Stats.geomean (per_nf ~loop:"shard_mpps." "runtime.shard_mpps." Catalog.shard_nfs) in
  let g_chain = Stats.geomean [ rate "chain_mpps.random"; rate "chain_mpps.churn" ] in
  List.iter
    (fun (k, v) -> Ctx.set_final c k v)
    [
      ("engine_random_mpps", g_r);
      ("engine_churn_mpps", g_c);
      ("chain_mpps", g_chain);
      ("shard_mpps", g_shard);
      ("phase1_s", 1. /. g_r);
      ("phase2_s", 1. /. g_c);
      ("phase3_s", 1. /. g_chain);
      ("phase4_s", 1. /. g_shard);
    ]
