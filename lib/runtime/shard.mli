(** Sharded multicore dataplane: flow-key domain sharding with an
    RCU-style plan swap — the one domain-parallel executor, for a
    single NF and for linked chains alike.

    One {!Chainengine.t} per OCaml domain (a single NF is the one-hop
    chain of {!Chainplan.of_plan}), each owning a shard-local store of
    per-flow tables chained over one shared read/write store (scalars
    + global tables) and one pinned config store ({!Shardplan} decides
    the split). Batches run in two phases: a parallel phase with the
    shared store frozen — packets whose walk provably touched only
    shard-local and pinned state complete in place — and a serial
    phase replaying every deferred packet in global arrival order
    (dirty same-flow hashes, walks that read through the frozen store,
    and fires of serial entries).

    {b Sharded chains.} {!of_chain} admits a linked chain exactly when
    {!Chainplan.shard_spec} does: no hop keeps global tables or serial
    entries, every stateful hop shards on the same flow-key fields,
    and no hop rewrites one (so a packet never leaves the shard owning
    its state). The chain's merged initial store is split with each
    table's owning-hop router, and each shard's packets traverse the
    hops breadth-first with hop fusion, every hop step taking part in
    the same freeze/defer/serial-replay protocol; a packet deferred at
    hop [i] resumes there in the serial phase. An admitted chain never
    reads shared state, so in practice nothing defers.

    With unbounded stores the merged result — outputs, final store,
    merged counters per hop — is differentially exact against a single
    engine (or a single {!Chainengine}) fed the same stream. A
    capacity bound keeps the same reachable behavior but may evict in
    a different order (per-shard clocks; see DESIGN.md §13). *)

type t

val create :
  ?capacity:int ->
  nshards:int ->
  Nfactor.Model.t ->
  config:Nfactor.Model_interp.store ->
  t
(** Compile the model ([~shared:true]), analyze its sharding, split
    the initial store and spawn [nshards - 1] worker domains (shard 0
    runs on the calling thread). [capacity] bounds each per-flow table
    of the shard-local and shared stores.
    @raise Invalid_argument when [nshards < 1] or an oisVar is not
    seeded in [config]. *)

val of_chain :
  ?capacity:int -> nshards:int -> Chainplan.t -> (t, string) result
(** {!create} for a linked chain. [Error] (the first obstruction,
    verbatim from {!Chainplan.shard_spec}) when the chain does not
    shard. Re-links the plan with [shared:true] when needed, so the
    caller's plan is untouched. *)

val shutdown : t -> unit
(** Stop and join the worker domains; idempotent. Further batch calls
    raise [Invalid_argument]. *)

val spec : t -> Shardplan.spec
(** The routing spec: the model's own, or the chain's from
    {!Chainplan.shard_spec}. *)

val swap_plan : t -> Compile.t -> unit
(** Publish a replacement plan (RCU): it must be compiled
    [~shared:true] over a model with the same entry count, and its
    sharding analysis must be {!Shardplan.compatible} with the layout
    fixed at {!create}. Engines adopt it at the next batch boundary —
    a quiescent point — and keep their counters. Callable between
    batches from any thread.
    @raise Invalid_argument on a sharded chain: its plans are linked. *)

(** {1 Batch execution} *)

val run_batch : t -> Packet.Pkt.t array -> Engine.outcome array
(** Process one batch; [result.(i)] is packet [i]'s outcome, identical
    to a single engine stepping the same array in order (unbounded
    stores). Packets are routed to shards by flow-key hash inside. For
    a chain, [outputs] are the packets leaving the last hop and
    [fired] is the first hop's entry ({!Chainengine.walk}). *)

val run_batch_count : t -> Packet.Pkt.t array -> unit
(** Allocation-free {!run_batch} for timed loops: same state effect,
    same counters, no outcome array (see {!Engine.step_count}). *)

(** {1 Merged views} *)

val snapshot : t -> Nfactor.Model_interp.store
(** Deterministic merge of the config, shared and per-shard partitions
    back into one interpreter store: partitions hold disjoint names,
    shard copies of a sharded table hold disjoint keys, and sorted
    dictionaries merge by key — byte-comparable against a single
    engine's {!Engine.snapshot} (for a chain, a single chain engine's
    merged store). *)

val snapshot_hops : t -> (string * Nfactor.Model_interp.store) list
(** {!snapshot} split per hop ({!Chainplan.split_store}) —
    comparable against {!Chainengine.snapshot_hops}. *)

val merged_stats : t -> Engine.stats
(** The first hop's counters summed over shards
    ({!Engine.merge_stats}); for one NF, comparable 1:1 against a
    single engine's counters. *)

val hop_stats : t -> (string * Engine.stats) list
(** Merged counters per hop — comparable 1:1 against
    {!Chainengine.hop_stats}. *)

val evictions : t -> int
(** Total LRU evictions across the shared and shard-local stores. *)

val deferred : t -> int
(** Packets that took the serial phase so far (telemetry: the
    complement of the parallel fraction). *)

val batches : t -> int

val stats_json : t -> nf:string -> string
(** One-line JSON: sharding summary, then for one NF the merged
    counters and per-shard counter objects in shard-index order, for a
    chain the fused-walk/handoff totals and merged counters per hop —
    field order deterministic. *)
