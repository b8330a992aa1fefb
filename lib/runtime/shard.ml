(* The sharded dataplane: one Chainengine per domain (a single NF is a
   one-hop chain), a store chain shard-local -> shared read/write ->
   pinned config, and the two-phase batch protocol — frozen parallel
   phase, then a serial phase finishing each deferred packet from the
   hop where it stopped, in global arrival order. See the interface
   and DESIGN.md §13 for the exactness argument. *)

module Smap = Nfactor.Model_interp.Smap

(* ------------------------------------------------------------------ *)
(* Worker plumbing                                                     *)
(* ------------------------------------------------------------------ *)

(* A deferred packet: global batch index, owning shard, and where it
   stopped ([None] = deferred before its walk began: a full re-run). *)
type ditem = {
  dg : int;
  dp : Packet.Pkt.t;
  dshard : int;
  dstop : Chainengine.stop option;
}

type jobspec = {
  j_gidx : int array;  (** this shard's batch indices, in arrival order *)
  j_pkts : Packet.Pkt.t array;  (** the whole batch *)
  j_kh : int array;  (** flow-key hash per batch packet *)
  j_count : bool;
  j_out : Engine.outcome array;  (** shared; disjoint slots per shard *)
  j_serial : bool array array;  (** per hop *)
}

type job = Run of jobspec | Quit

(* A worker blocks on [w_go]; the driver sets [w_job] and releases it.
   The semaphores' mutexes order those writes, and [w_deferred] before
   the [finished] release the driver waits on. *)
type worker = {
  w_shard : int;
  w_chain : Chainengine.t;
  w_go : Semaphore.Binary.t;
  mutable w_job : job;
  mutable w_deferred : ditem list;  (** result of the last job *)
}

(* Phase A over one shard's slice. The dirty set is keyed on the raw
   flow hash: collisions only defer spuriously, never unsoundly. *)
let phase_a ce shard (j : jobspec) =
  let dirty : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let defs = ref [] in
  let defer g p kh dstop =
    Hashtbl.replace dirty kh ();
    defs := { dg = g; dp = p; dshard = shard; dstop } :: !defs
  in
  Array.iter
    (fun g ->
      let p = j.j_pkts.(g) and kh = j.j_kh.(g) in
      if Hashtbl.mem dirty kh then defer g p kh None
      else
        match Chainengine.step_or_defer ce ~serial:j.j_serial ~count:j.j_count p with
        | o -> if not j.j_count then j.j_out.(g) <- o
        | exception Chainengine.Deferred s -> defer g p kh (Some s))
    j.j_gidx;
  !defs

let post w job =
  w.w_job <- job;
  Semaphore.Binary.release w.w_go

let worker_loop w finished =
  let rec loop () =
    Semaphore.Binary.acquire w.w_go;
    match w.w_job with
    | Quit -> ()
    | Run j ->
        w.w_deferred <- phase_a w.w_chain w.w_shard j;
        Semaphore.Counting.release finished;
        loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* The sharded engine                                                  *)
(* ------------------------------------------------------------------ *)

type t = {
  nshards : int;
  cp : Chainplan.t;  (** shared plans; one hop for a single NF *)
  spec : Shardplan.spec;  (** routes packets; fixed: it defines the layout *)
  mutable serial : bool array array;  (** per hop; refreshed on plan swap *)
  plan_cell : Compile.t Atomic.t;  (** hop 0's plan (swappable for one hop) *)
  static_st : Flowstate.t;
  rw_global : Flowstate.t;
  chains : Chainengine.t array;  (** chains.(s) owns shard [s]'s store *)
  workers : worker array;  (** shards 1..n-1; shard 0 runs on the driver *)
  domains : unit Domain.t array;
  finished : Semaphore.Counting.t;  (** one release per finished worker job *)
  mutable n_deferred : int;
  mutable n_batches : int;
  mutable stopped : bool;
}

let spec t = t.spec
let deferred t = t.n_deferred
let batches t = t.n_batches

(* Split [store0] three ways: config to the pinned store, oisVars to
   the shared read/write store — except the tables the owning hop's
   analysis shards, split by key with that hop's router (every hop
   hashes the routing spec's flow-key fields, so table placement agrees
   with packet routing) — then spawn the workers. *)
let build ?capacity ~nshards (cp : Chainplan.t) spec =
  if nshards < 1 then invalid_arg "Shard.create: nshards must be >= 1";
  let owner = Hashtbl.create 16 in
  Array.iter
    (fun (h : Chainplan.hop) ->
      List.iter
        (fun v ->
          (* Writes must always route to an owning store: a name
             created at the chain root could hide a later frozen-phase
             read's staleness. The extractor seeds every oisVar. *)
          if not (Smap.mem v cp.Chainplan.store0) then
            invalid_arg ("Shard.create: unseeded state variable " ^ v);
          Hashtbl.replace owner v (Shardplan.router h.Chainplan.h_spec v))
        h.Chainplan.h_model.Nfactor.Model.ois_vars)
    cp.Chainplan.hops;
  let static_b = ref Smap.empty and rw_b = ref Smap.empty in
  let shard_b = Array.make nshards Smap.empty in
  Smap.iter
    (fun name v ->
      match (Hashtbl.find_opt owner name, v) with
      | None, _ -> static_b := Smap.add name v !static_b
      | Some (Some route), Symexec.Value.Dict kvs ->
          Array.iteri
            (fun s b ->
              let part = List.filter (fun (k, _) -> route k mod nshards = s) kvs in
              shard_b.(s) <- Smap.add name (Symexec.Value.Dict part) b)
            shard_b
      | Some _, _ -> rw_b := Smap.add name v !rw_b)
    cp.Chainplan.store0;
  let static_st = Flowstate.create !static_b in
  Flowstate.pin static_st;
  let rw_global = Flowstate.create ?capacity ~fallback:static_st !rw_b in
  let chains =
    Array.init nshards (fun s ->
        Chainengine.of_flowstate cp
          (Flowstate.create ?capacity ~fallback:rw_global shard_b.(s)))
  in
  let finished = Semaphore.Counting.make 0 in
  let workers =
    Array.init (nshards - 1) (fun i ->
        {
          w_shard = i + 1;
          w_chain = chains.(i + 1);
          w_go = Semaphore.Binary.make false;
          w_job = Quit;
          w_deferred = [];
        })
  in
  {
    nshards;
    cp;
    spec;
    serial =
      Array.map (fun (h : Chainplan.hop) -> h.Chainplan.h_spec.Shardplan.serial) cp.Chainplan.hops;
    plan_cell = Atomic.make cp.Chainplan.hops.(0).Chainplan.h_plan;
    static_st;
    rw_global;
    chains;
    workers;
    domains = Array.map (fun w -> Domain.spawn (fun () -> worker_loop w finished)) workers;
    finished;
    n_deferred = 0;
    n_batches = 0;
    stopped = false;
  }

let create ?capacity ~nshards model ~config =
  let plan = Compile.compile ~shared:true model ~config in
  let cp = Chainplan.of_plan ~id:model.Nfactor.Model.nf_name plan config in
  build ?capacity ~nshards cp cp.Chainplan.hops.(0).Chainplan.h_spec

let of_chain ?capacity ~nshards (cp : Chainplan.t) =
  let cp =
    if cp.Chainplan.shared then cp else Chainplan.link ~shared:true cp.Chainplan.sources
  in
  Result.map (build ?capacity ~nshards cp) (Chainplan.shard_spec cp)

let swap_plan t plan' =
  if Chainplan.n_hops t.cp > 1 then
    invalid_arg "Shard.swap_plan: a sharded chain keeps its linked plans";
  if not plan'.Compile.shared then
    invalid_arg "Shard.swap_plan: plan must be compiled ~shared:true";
  let model' = plan'.Compile.model in
  if Nfactor.Model.entry_count model' <> Array.length t.serial.(0) then
    invalid_arg "Shard.swap_plan: different entry count";
  let spec' =
    Shardplan.analyze model' ~config:t.cp.Chainplan.store0 ~live:plan'.Compile.live_idx
  in
  if not (Shardplan.compatible ~existing:t.spec spec') then
    invalid_arg "Shard.swap_plan: incompatible sharding (repartition required)";
  t.serial <- [| spec'.Shardplan.serial |];
  Atomic.set t.plan_cell plan'
  (* engines adopt it at the next batch boundary *)

(* ------------------------------------------------------------------ *)
(* Batch execution                                                     *)
(* ------------------------------------------------------------------ *)

let exec t ~count pkts out =
  if t.stopped then invalid_arg "Shard: engine was shut down";
  let n = Array.length pkts in
  if n > 0 then begin
    (* Quiescent point: adopt a swapped plan on every engine. *)
    let plan = Atomic.get t.plan_cell in
    Array.iter
      (fun ce ->
        let eng = ce.Chainengine.engines.(0) in
        if eng.Engine.plan != plan then Engine.swap_plan eng plan)
      t.chains;
    (* Partition by flow-key hash, preserving arrival order per shard. *)
    let khs = Array.map (Shardplan.hash t.spec) pkts in
    let counts = Array.make t.nshards 0 in
    Array.iter (fun kh -> counts.(kh mod t.nshards) <- counts.(kh mod t.nshards) + 1) khs;
    let gidx = Array.map (fun c -> Array.make c 0) counts in
    Array.fill counts 0 t.nshards 0;
    Array.iteri
      (fun g kh ->
        let s = kh mod t.nshards in
        gidx.(s).(counts.(s)) <- g;
        counts.(s) <- counts.(s) + 1)
      khs;
    let job s =
      {
        j_gidx = gidx.(s);
        j_pkts = pkts;
        j_kh = khs;
        j_count = count;
        j_out = out;
        j_serial = t.serial;
      }
    in
    (* Phase A: freeze shared state, fan out, run shard 0 inline. *)
    Flowstate.freeze t.rw_global;
    Array.iter (fun w -> post w (Run (job w.w_shard))) t.workers;
    let d0 = phase_a t.chains.(0) 0 (job 0) in
    Array.iter (fun _ -> Semaphore.Counting.acquire t.finished) t.workers;
    Flowstate.thaw t.rw_global;
    (* Phase B: deferred packets in global arrival order. *)
    let all =
      List.sort
        (fun a b -> compare a.dg b.dg)
        (List.concat (d0 :: Array.to_list (Array.map (fun w -> w.w_deferred) t.workers)))
    in
    t.n_deferred <- t.n_deferred + List.length all;
    List.iter
      (fun d ->
        let ce = t.chains.(d.dshard) in
        let o =
          match d.dstop with
          | Some s -> Chainengine.finish ce ~count s
          | None -> Chainengine.walk ce ~count d.dp
        in
        if not count then out.(d.dg) <- o)
      all;
    t.n_batches <- t.n_batches + 1
  end

let run_batch t pkts =
  let out = Array.make (Array.length pkts) { Engine.outputs = []; fired = None } in
  exec t ~count:false pkts out;
  out

let run_batch_count t pkts = exec t ~count:true pkts [||]

let shutdown t =
  if not t.stopped then begin
    t.stopped <- true;
    Array.iter (fun w -> post w Quit) t.workers;
    Array.iter Domain.join t.domains
  end

(* ------------------------------------------------------------------ *)
(* Merged views                                                        *)
(* ------------------------------------------------------------------ *)

(* The three partitions hold disjoint name sets; shard-local stores
   hold the same (sharded) names with disjoint key sets, merged by
   sorted-list merge to restore the Dict invariant. *)
let snapshot t =
  let merge_cell _ a b =
    match (a, b) with
    | Symexec.Value.Dict x, Symexec.Value.Dict y ->
        Some
          (Symexec.Value.Dict
             (List.merge
                (fun (k1, _) (k2, _) -> Symexec.Value.compare k1 k2)
                x y))
    | _, b -> Some b
  in
  let base =
    Smap.union merge_cell
      (Flowstate.snapshot t.static_st)
      (Flowstate.snapshot t.rw_global)
  in
  Array.fold_left
    (fun acc ce -> Smap.union merge_cell acc (Flowstate.snapshot ce.Chainengine.state))
    base t.chains

let snapshot_hops t = Chainplan.split_store t.cp (snapshot t)

let hop_merged t i =
  Engine.merge_stats (Array.map (fun ce -> ce.Chainengine.engines.(i).Engine.stats) t.chains)

let hop_stats t =
  List.mapi (fun i id -> (id, hop_merged t i)) (Chainplan.hop_ids t.cp)

let merged_stats t = hop_merged t 0

let evictions t =
  Array.fold_left
    (fun acc ce -> acc + Chainengine.evictions ce)
    (Flowstate.evictions t.rw_global)
    t.chains

(* Deterministic shape: the sharding summary, then for one NF its
   merged counters and per-shard counters in shard-index order, for a
   chain the hop-handoff counters and merged counters per hop. *)
let stats_json t ~nf =
  let open Nfactor.Json in
  let sum f = Array.fold_left (fun acc ce -> acc + f ce) 0 t.chains in
  let count_true = Array.fold_left (fun a s -> if s then a + 1 else a) 0 in
  let summary =
    [
      ("nf", String nf);
      ("shards", Int t.nshards);
      ("flow_key", List (List.map (fun f -> String f) t.spec.Shardplan.key_fields));
      ("serial_entries", Int (Array.fold_left (fun a s -> a + count_true s) 0 t.serial));
      ("deferred", Int t.n_deferred);
      ("batches", Int t.n_batches);
    ]
  in
  let details =
    if Chainplan.n_hops t.cp = 1 then
      let plan = Atomic.get t.plan_cell in
      [
        ("merged", Engine.stats_obj ~nf ~plan ~evictions:(evictions t) (merged_stats t));
        ( "per_shard",
          List
            (Array.to_list
               (Array.map
                  (fun ce ->
                    Engine.stats_obj ~nf ~plan ~evictions:(Chainengine.evictions ce)
                      ce.Chainengine.engines.(0).Engine.stats)
                  t.chains)) );
      ]
    else
      [
        ("evictions", Int (evictions t));
        ("fused_walks", Int (sum (fun ce -> ce.Chainengine.fused_walks)));
        ("handoffs", Int (sum (fun ce -> ce.Chainengine.handoffs)));
        ("per_hop", Chainengine.per_hop_obj t.cp (hop_stats t));
      ]
  in
  to_string (Obj (summary @ details))
