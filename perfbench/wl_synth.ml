(* Workload [synth]: the 14-NF corpus goes source -> verified,
   minimized, compiled model, and through the paper's Table 2 sweep and
   an invariant set. A sample is a cold sweep (fresh pass manager over a
   fresh cache directory: extract, analyze, plan), three warm sweeps
   (each a fresh manager replaying the same directory), then the
   symbolic part ([Wl_symbolic.sample]). *)

open Nfactor

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let rec dir_bytes path =
  if Sys.is_directory path then
    Array.fold_left (fun acc f -> acc + dir_bytes (Filename.concat path f)) 0 (Sys.readdir path)
  else (Unix.stat path).Unix.st_size

(* One manager call; the passes it ran (from the manager's trace log)
   become spans laid end to end from the call's start. *)
let call c m ~name_of f =
  let seen = List.length (Pipeline.Manager.traces m) in
  let start = Ctx.now c in
  let r = f () in
  ignore
    (List.fold_left
       (fun s (t : Pipeline.Trace.t) ->
         let stop = s +. t.Pipeline.Trace.wall_s in
         Ctx.derived_span c (name_of t) ~start:s ~stop;
         stop)
       start
       (List.filteri (fun i _ -> i >= seen) (Pipeline.Manager.traces m)));
  r

type product = {
  ex : Extract.result;
  outcome : Analysis.Minimize.outcome;
  plan : Nfactor_runtime.Compile.t;
  digest : string;
}

let synthesize c m ~name_of (nf : Nf_source.t) =
  let ex =
    call c m ~name_of (fun () -> Pipeline.Manager.extract_source m ~name:nf.Nf_source.name nf.Nf_source.source)
  in
  let _, outcome, _ = call c m ~name_of (fun () -> Pipeline.Manager.analyze m ex) in
  let minimized = outcome.Analysis.Minimize.minimized in
  let plan =
    call c m ~name_of (fun () -> Pipeline.Manager.plan m { ex with Extract.model = minimized })
  in
  let digest =
    Digest.to_hex
      (Digest.string
         (Model_io.to_string ex.Extract.model ^ "\n" ^ Model_io.to_string minimized ^ "\n"
         ^ string_of_int plan.Nfactor_runtime.Compile.live))
  in
  { ex; outcome; plan; digest }

let cold_name (t : Pipeline.Trace.t) =
  if t.Pipeline.Trace.pass = "analyze" then "analysis.analyze_ms." ^ t.Pipeline.Trace.nf
  else Catalog.pass_metric t.Pipeline.Trace.pass

(* Warm sweeps per cold one, each by a fresh manager: a warm sweep is a
   fifteenth of a cold one, so its units get more samples this way. *)
let warm_replays = 3

let warm_name (t : Pipeline.Trace.t) = "pipeline.warm_load_ms." ^ t.Pipeline.Trace.pass
let persisted = List.filter (fun p -> p <> "compile") Catalog.passes

(* The analyze pass split into its parts, each timed by its own call on
   the cold sweep's extraction. [Minimize.run] includes its own gate
   replay; [core.equiv_gate_ms] times that replay alone. *)
let analyze_split c ~gate_pkts (p : product) =
  let ex = p.ex in
  let store = Model_interp.initial_store ex in
  let model = ex.Extract.model in
  ignore (Ctx.timed c "analysis.lint_pre_ms" (fun () -> Analysis.Lint.run ex));
  let o = Ctx.timed c "analysis.minimize_ms" (fun () -> Analysis.Minimize.run ~store model) in
  let minimized = o.Analysis.Minimize.minimized in
  ignore
    (Ctx.timed c "core.equiv_gate_ms" (fun () ->
         Equiv.model_differential ~store ~pkts:gate_pkts model minimized));
  ignore
    (Ctx.timed c "analysis.lint_post_ms" (fun () ->
         Analysis.Lint.model_lint ~ordered:true ~store minimized))

let run (c : Ctx.t) =
  (* Oracle traffic for the accuracy experiment, from the seed. *)
  let oracle_pkts =
    Packet.Traffic.random_stream ~seed:c.Ctx.seed ~n:600 ()
    @ Packet.Traffic.flow_stream ~seed:(c.Ctx.seed + 1) ~flows:20 ~data_pkts:3 ()
  in
  let gate_pkts = Analysis.Minimize.default_pkts () in
  if not (Sys.file_exists c.Ctx.out_dir) then Sys.mkdir c.Ctx.out_dir 0o755;
  let setup () =
    let nfs = Nf_source.all () in
    (nfs, Wl_symbolic.setup nfs)
  in
  let nfs, invs = Ctx.setup c setup in
  let first_digests = ref [] in
  Ctx.loop c ~min_samples:3 ~setup (fun ~first ->
      let dir =
        Filename.concat c.Ctx.out_dir
          (Printf.sprintf "synth-cache-%d-%d" (Unix.getpid ()) c.Ctx.sample)
      in
      if Sys.file_exists dir then rm_rf dir;
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
        (fun () ->
          let sweep label phase ~name_of =
            let m = Pipeline.Manager.create ~cache_dir:dir () in
            let t = Unix.gettimeofday () in
            let products =
              Ctx.timed c label (fun () ->
                  List.map
                    (fun nf ->
                      let t = Unix.gettimeofday () in
                      let p = synthesize c m ~name_of nf in
                      Ctx.unit_time c phase nf.Nf_source.name (Unix.gettimeofday () -. t);
                      p)
                    nfs)
            in
            let dt = Unix.gettimeofday () -. t in
            Ctx.e2e c label dt;
            Ctx.e2e c phase dt;
            (m, products)
          in
          let m1, cold = sweep "synth_cold_s" "phase1_s" ~name_of:cold_name in
          Ctx.e2e c "pipeline.store_bytes" (float_of_int (dir_bytes dir));
          List.iter
            (fun (t : Pipeline.Trace.t) ->
              if t.Pipeline.Trace.pass = "analyze" then
                Ctx.add_time c "analysis.analyze_ms" t.Pipeline.Trace.wall_s)
            (Pipeline.Manager.traces m1);
          (* Each warm sweep starts from a fully collected heap and is
             checked (outside its timing) before the next one, so the
             replays do not pile up live data. *)
          for i = 1 to warm_replays do
            Gc.full_major ();
            let m2, warm = sweep "synth_warm_s" "phase2_s" ~name_of:warm_name in
            let hit_pct =
              Pipeline.Trace.hit_rate
                (List.filter
                   (fun (t : Pipeline.Trace.t) -> List.mem t.Pipeline.Trace.pass persisted)
                   (Pipeline.Manager.traces m2))
            in
            if i = 1 then Ctx.count c "pipeline.warm_hit_pct" hit_pct;
            Ctx.check c (hit_pct = 100.)
              (Printf.sprintf "warm sweep replays every persisted pass (hit rate %.1f%%)" hit_pct);
            List.iter2
              (fun (p : product) (w : product) ->
                let name = p.ex.Extract.model.Model.nf_name in
                Ctx.check c (p.digest = w.digest)
                  (Printf.sprintf "%s: warm model digest equals the cold one" name))
              cold warm
          done;
          List.iter
            (fun (p : product) ->
              let st = p.ex.Extract.stats in
              let o = p.outcome in
              Ctx.count c "symexec.solver_calls" (float_of_int st.Symexec.Explore.solver_calls);
              Ctx.count c "symexec.paths_slice" (float_of_int st.Symexec.Explore.paths);
              Ctx.count c "symexec.forks" (float_of_int st.Symexec.Explore.forks);
              Ctx.count c "symexec.merges" (float_of_int st.Symexec.Explore.merges);
              Ctx.count c "symexec.prunes" (float_of_int st.Symexec.Explore.prunes);
              Ctx.count c "core.equiv_gate_pkts" (float_of_int o.Analysis.Minimize.trials);
              Ctx.count c "analysis.entries_in"
                (float_of_int (Model.entry_count o.Analysis.Minimize.original));
              Ctx.count c "analysis.entries_out"
                (float_of_int (Model.entry_count o.Analysis.Minimize.minimized));
              Ctx.count c "analysis.rewrites"
                (float_of_int
                   (o.Analysis.Minimize.deleted_dead + o.Analysis.Minimize.deleted_shadowed
                  + o.Analysis.Minimize.merged + o.Analysis.Minimize.widened_literals)))
            cold;
          (* Oracles, outside the timed sweeps. *)
          let digests = List.map (fun p -> p.digest) cold in
          if first then begin
            first_digests := digests;
            List.iter
              (fun (p : product) ->
                let name = p.ex.Extract.model.Model.nf_name in
                let v =
                  Equiv.differential
                    { p.ex with Extract.model = p.outcome.Analysis.Minimize.minimized }
                    ~pkts:oracle_pkts
                in
                Ctx.check c (Equiv.ok v)
                  (Printf.sprintf "%s: minimized model agrees with the NFL program on %d packets \
                                   (%d mismatches)"
                     name v.Equiv.trials (List.length v.Equiv.mismatches)))
              cold
          end
          else
            Ctx.check c (digests = !first_digests) "cold model digests repeat across samples";
          if c.Ctx.traced then List.iter (analyze_split c ~gate_pkts) cold);
      Wl_symbolic.sample c ~nfs ~invs ~first);
  (* A sweep's time is the sum over the NFs of each one's estimate. *)
  Ctx.set_sums c [ ("phase1_s", "synth_cold_s"); ("phase2_s", "synth_warm_s") ];
  Wl_symbolic.finish c
