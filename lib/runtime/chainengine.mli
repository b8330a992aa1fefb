(** Batched execution of a linked chain plan ({!Chainplan}) over one
    shared {!Flowstate}.

    One engine per hop, all chained over a single namespaced store.
    Packets traverse the chain breadth-first exactly like
    {!Verify.Network.push} — every packet alive at hop [i] steps
    through it (state updates committing in packet order) before any
    moves to hop [i+1] — so outputs, per-hop traces and final stores
    are differentially comparable against the interpreter chain.

    A packet emitted by an upstream entry whose fused start node was
    pre-decided at link time enters the next hop {e below} its root
    ([fused_walks] counts these); everything else is a plan-to-plan
    handoff from the root ([handoffs]) — no packet is ever
    re-materialized between hops either way.

    One traversal loop serves {!step}, {!step_trace},
    {!run_batch_count} and the sharded dataplane's deferrable walk
    ({!step_or_defer} / {!finish}); {!Shard} runs linked chains with
    it. *)

type t = {
  cp : Chainplan.t;
  state : Flowstate.t;  (** the one store all hop engines share *)
  engines : Engine.t array;  (** per hop, in chain order *)
  mutable injected : int;
  mutable fused_walks : int;  (** walks started below a hop root *)
  mutable handoffs : int;  (** non-fused hop-to-hop handoffs *)
}

val create : ?capacity:int -> Chainplan.t -> t
(** Fresh chain engine over the plan's merged initial store;
    [capacity] bounds each flow table (leave unset for exact
    interpreter equivalence). *)

val of_flowstate : Chainplan.t -> Flowstate.t -> t
(** Chain engine over an existing store — the sharded dataplane builds
    one per shard over its shard-local store. *)

val step : t -> Packet.Pkt.t -> Packet.Pkt.t list
(** One packet through the whole chain; returns the packets emerging
    from the last hop. State updates stick. *)

type hoprec = {
  hop_id : string;
  entered : Packet.Pkt.t list;
  left : Packet.Pkt.t list;
}
(** Mirrors {!Verify.Network.hop} for trace-level differential checks. *)

val step_trace : t -> Packet.Pkt.t -> Packet.Pkt.t list * hoprec list

val run_batch : t -> Packet.Pkt.t array -> Packet.Pkt.t list array

val run_batch_count : t -> Packet.Pkt.t array -> unit
(** {!run_batch} for timed loops (see {!Engine.timed_replay}):
    intermediate hops materialize their outputs, the last hop counts
    only, so no per-packet outcome is allocated. *)

val delivered : t -> int
(** Packets that emerged from the last hop (derived from its entry-hit
    counters, so {!run_batch_count} counts too). *)

val snapshot_hops : t -> (string * Nfactor.Model_interp.store) list
(** Per-hop final stores with original variable names, in chain order
    — comparable against {!Verify.Network} node stores. *)

val hop_stats : t -> (string * Engine.stats) list
val evictions : t -> int
val pp_stats : Format.formatter -> t -> unit

val stats_json : t -> string
(** Chain counters plus per-hop engine counters as one JSON object. *)

val per_hop_obj : Chainplan.t -> (string * Engine.stats) list -> Nfactor.Json.t
(** The ["per_hop"] member of {!stats_json} over explicit per-hop
    counters — shared with the sharded chain's merged view. *)

(** {1 Deferrable walks — the sharded dataplane's phase protocol} *)

type stop
(** Where a deferred packet stopped: the hop, the packets still
    waiting at it (the first one deferred, with its saved match if
    only the fire waits), and the outputs that hop already produced. *)

exception Deferred of stop

val walk : t -> count:bool -> Packet.Pkt.t -> Engine.outcome
(** {!step} as an outcome: [outputs] are the packets leaving the last
    hop, [fired] is the entry hop 0 fired — for a one-hop chain,
    exactly {!Engine.step}'s outcome. With [count] the last hop counts
    only ({!run_batch_count}) and the result is a placeholder. *)

val step_or_defer :
  t -> serial:bool array array -> count:bool -> Packet.Pkt.t -> Engine.outcome
(** {!walk} in a parallel phase: every hop step is
    {!Engine.step_or_defer} with that hop's [serial] flags. Hops
    already passed stay committed.
    @raise Deferred when a hop step defers or must re-walk. *)

val finish : t -> count:bool -> stop -> Engine.outcome
(** Serial-phase completion of a {!Deferred} packet, from where it
    stopped: counters, state and outcome end up as one uninterrupted
    {!step_or_defer} would have left them. *)
