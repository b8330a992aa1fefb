(** Static linking of N compiled plans into one service-chain plan.

    A chain of synthesized models normally executes hop-by-hop through
    the reference interpreter ({!Verify.Network}): every hop re-decides
    its config entries, re-walks its match order, and keeps its own
    store. The chain linker instead compiles every hop against its own
    initial store and links the results:

    - {b Namespacing}: hop [i]'s cfgVars and oisVars (scalar cells,
      flow tables, dictionary bases inside terms) are renamed under the
      prefix ["h<i>:"], so all hops share {e one} {!Flowstate} chain
      with no collisions — state names are per-hop by construction,
      packet fields are global by construction. The renaming is a pure
      bijection, so each hop's renamed plan is step-for-step equivalent
      to its original.
    - {b Hop fusion}: when an upstream entry's forward snapshot pins a
      packet field to a statically-known value (a config constant —
      e.g. a NAT rewriting [ip_src := nat_ip]), the downstream hop's
      dispatch tree is partially evaluated at link time: every dispatch
      node whose discriminating term reads only pinned fields and
      run-constant config resolves to the exact child the runtime walk
      would take, and the linked plan records the surviving subtree as
      the packet's {e entry node} into that hop. Adjacent exact-match
      tables fuse this way into a single pre-decided path.
    - {b Handoff fallback}: entries with dynamic rewrites (or hops
      whose dispatch reads unpinned fields) fall back to plan-to-plan
      handoff — the downstream walk starts at the hop's root — without
      re-materializing or re-parsing the packet.

    Fusion is an optimization with a soundness obligation, discharged
    conservatively: a node is only skipped when its source term's free
    symbols are all either statically-rewritten packet fields or config
    variables no entry of the chain ever writes, and the link-time
    evaluation routes evaluation failures through the same
    unresolved/non-bool classes as the runtime walk. Anything else
    stops the descent early — early stops cost speed, never
    correctness. *)

type hop = {
  h_id : string;  (** unique node id within the chain *)
  h_prefix : string;  (** state namespace, ["h<i>:"] *)
  h_model : Nfactor.Model.t;  (** renamed under [h_prefix] *)
  h_source : Nfactor.Model.t;  (** the model as given *)
  h_store : Nfactor.Model_interp.store;  (** renamed initial store *)
  h_plan : Compile.t;  (** compiled from the renamed model *)
  h_spec : Shardplan.spec;  (** sharding analysis of the renamed plan *)
}

type t = {
  hops : hop array;
  store0 : Nfactor.Model_interp.store;
      (** merged namespaced initial store — one {!Flowstate} seeds all
          hops *)
  starts : Compile.dnode array array array;
      (** [starts.(i).(e).(j)]: the node of hop [i+1]'s tree where a
          packet emitted by hop [i]'s entry [e], snapshot [j], starts
          its walk. The hop's root when nothing fused; [[||]] per
          entry that cannot emit (drop action or statically dead). *)
  sources : (string * Nfactor.Model.t * Nfactor.Model_interp.store) list;
      (** the nodes as given, for re-linking (e.g. [shared] plans) *)
  shared : bool;  (** plans compiled for cross-domain sharing *)
  fused_entries : int;
      (** (entry, snapshot) pairs entering the next hop below its root *)
  fused_nodes : int;  (** dispatch nodes pre-decided at link time, total *)
}

val link :
  ?shared:bool ->
  (string * Nfactor.Model.t * Nfactor.Model_interp.store) list ->
  t
(** Link a chain of (id, model, initial store) in traversal order.
    Duplicate ids are uniquified with [#k] suffixes. [shared] compiles
    every hop plan for read-only cross-domain sharing (see
    {!Compile.compile}); the sharded chain runtime requires it.
    @raise Invalid_argument on an empty chain. *)

val of_plan : id:string -> Compile.t -> Nfactor.Model_interp.store -> t
(** One compiled plan (over its initial store) as a one-hop chain,
    without renaming: the hop's prefix is empty, so [store0],
    {!split_store} and every state name are the plan's own. The
    sharded dataplane runs a single NF this way. *)

val n_hops : t -> int
val hop_ids : t -> string list

val rename_model : prefix:string -> Nfactor.Model.t -> Nfactor.Model.t
(** The namespacing bijection: every cfgVar/oisVar occurrence (symbols,
    dictionary bases, update targets) prefixed. Exposed for tests. *)

val rename_store :
  prefix:string -> Nfactor.Model_interp.store -> Nfactor.Model_interp.store

val split_store :
  t -> Nfactor.Model_interp.store -> (string * Nfactor.Model_interp.store) list
(** Partition a merged chain store back into per-hop interpreter
    stores with original names, in hop order — comparable against
    {!Verify.Network} node stores. Bindings outside every hop prefix
    are dropped. *)

val shard_spec : t -> (Shardplan.spec, string) result
(** Whether the linked chain admits flow-key domain sharding, and
    under which spec. [Ok] requires every hop to pass the per-hop
    analysis with no global tables and no serial entries, all stateful
    hops to agree on one flow-key field set, and no hop to rewrite a
    key field (a rewrite would re-route the packet mid-chain away from
    its state). Stateless chains shard trivially under the first hop's
    spec. [Error] carries the first obstruction, for diagnostics. *)

val pp : Format.formatter -> t -> unit
