(* Chain execution over a linked plan: per-hop engines sharing one
   namespaced Flowstate, breadth-first traversal matching
   Verify.Network.push, and fused entry nodes from the link-time
   partial evaluation. One hop traversal serves every entry point:
   allocating, traced, counted, and the sharded dataplane's deferrable
   walk with its serial-phase completion. *)

type t = {
  cp : Chainplan.t;
  state : Flowstate.t;
  engines : Engine.t array;
  mutable injected : int;
  mutable fused_walks : int;
  mutable handoffs : int;
}

let of_flowstate (cp : Chainplan.t) state =
  {
    cp;
    state;
    engines =
      Array.map (fun (h : Chainplan.hop) -> Engine.of_flowstate h.Chainplan.h_plan state) cp.Chainplan.hops;
    injected = 0;
    fused_walks = 0;
    handoffs = 0;
  }

let create ?capacity (cp : Chainplan.t) =
  of_flowstate cp (Flowstate.create ?capacity cp.Chainplan.store0)

(* The engine's current plan: a one-hop sharded NF may have swapped it. *)
let root_of t i = t.engines.(i).Engine.plan.Compile.root

let note_start t i start =
  if start != root_of t i then t.fused_walks <- t.fused_walks + 1
  else if i > 0 then t.handoffs <- t.handoffs + 1

(* Prepend hop [i]'s outputs (reversed) to [next], each paired with its
   start node in hop [i + 1] — fused when the link pre-decided it. *)
let forward t i (o : Engine.outcome) next =
  if i + 1 >= Array.length t.engines then
    List.fold_left (fun acc out -> (out, root_of t i) :: acc) next o.Engine.outputs
  else
    match o.Engine.fired with
    | None -> next
    | Some e ->
        let starts = t.cp.Chainplan.starts.(i).(e) in
        let nroot = root_of t (i + 1) in
        snd
          (List.fold_left
             (fun (j, acc) out ->
               (j + 1, (out, if j < Array.length starts then starts.(j) else nroot) :: acc))
             (0, next) o.Engine.outputs)

type stop = {
  hop : int;
  at : Packet.Pkt.t * Compile.dnode;  (** the packet that stopped *)
  rest : (Packet.Pkt.t * Compile.dnode) list;  (** still waiting at [hop] *)
  next : (Packet.Pkt.t * Compile.dnode) list;
  pend : Engine.pending option;
  fired : int option;
}

exception Deferred of stop

let counted = { Engine.outputs = []; fired = None }

(* One packet at hop [i]. With per-hop [serial] flags the step may
   stop: the parallel phase of the sharded dataplane; with [never],
   the empty flag table, it steps plainly. [count] only ever holds at
   the last hop — intermediate hops must materialize their outputs,
   the next hop reads the rewritten fields. *)
let never : bool array array = [||]

let hop_step t i ~count ~serial p start =
  let eng = t.engines.(i) in
  if serial != never then Engine.step_or_defer eng ~root:start ~serial:serial.(i) ~count p
  else if count then begin
    Engine.step_count_at eng ~root:start p;
    `Counted
  end
  else `Out (Engine.step_at eng ~root:start p)

(* The breadth-first traversal from hop [i] on: every packet of [todo]
   steps through hop [i] in order (state commits exactly like the
   interpreter chain) before any moves on; [next] collects hop [i]'s
   outputs so far, reversed. [fired] is hop 0's entry, carried into a
   stop. [trace] sees each hop's entered and left packets. *)
let rec traverse t ~count ~serial ~trace ~fired i entered todo next =
  let last = i = Array.length t.engines - 1 in
  match todo with
  | ((p, start) as at) :: rest -> (
      match hop_step t i ~count:(count && last) ~serial p start with
      | `Out o ->
          note_start t i start;
          traverse t ~count ~serial ~trace ~fired i entered rest (forward t i o next)
      | `Counted ->
          note_start t i start;
          traverse t ~count ~serial ~trace ~fired i entered rest next
      | `Defer pend ->
          note_start t i start;
          raise (Deferred { hop = i; at; rest; next; pend = Some pend; fired })
      | `Rewalk -> raise (Deferred { hop = i; at; rest; next; pend = None; fired }))
  | [] -> (
      let left = List.rev_map fst next in
      (match trace with Some f -> f i entered left | None -> ());
      if last then left
      else traverse t ~count ~serial ~trace ~fired (i + 1) left (List.rev next) [])

(* Hop 0 sees exactly one packet; a one-hop chain returns the engine's
   own outcome untouched. *)
let walk_from t ~count ~serial ~trace p =
  t.injected <- t.injected + 1;
  let root = root_of t 0 in
  let one_hop = Array.length t.engines = 1 && Option.is_none trace in
  match hop_step t 0 ~count:(count && one_hop) ~serial p root with
  | `Out o when one_hop -> o
  | `Out o ->
      let fired = o.Engine.fired in
      let outputs =
        traverse t ~count ~serial ~trace ~fired 0 [ p ] [] (forward t 0 o [])
      in
      { Engine.outputs; fired }
  | `Counted -> counted
  | `Defer pend ->
      raise (Deferred { hop = 0; at = (p, root); rest = []; next = []; pend = Some pend; fired = None })
  | `Rewalk ->
      raise (Deferred { hop = 0; at = (p, root); rest = []; next = []; pend = None; fired = None })

let walk t ~count p = walk_from t ~count ~serial:never ~trace:None p
let step t pkt = (walk t ~count:false pkt).Engine.outputs

type hoprec = {
  hop_id : string;
  entered : Packet.Pkt.t list;
  left : Packet.Pkt.t list;
}

let step_trace t pkt =
  let recs = ref [] in
  let trace i entered left =
    recs := { hop_id = t.cp.Chainplan.hops.(i).Chainplan.h_id; entered; left } :: !recs
  in
  let o = walk_from t ~count:false ~serial:never ~trace:(Some trace) pkt in
  (o.Engine.outputs, List.rev !recs)

let run_batch t pkts = Array.map (step t) pkts

let run_batch_count t pkts =
  Array.iter (fun p -> ignore (walk t ~count:true p)) pkts

let step_or_defer t ~serial ~count p = walk_from t ~count ~serial ~trace:None p

let finish t ~count s =
  let p, start = s.at in
  let eng = t.engines.(s.hop) in
  let last = s.hop = Array.length t.engines - 1 in
  let o =
    match s.pend with
    | Some pend -> Engine.fire_pending eng ~count:(count && last) p pend
    | None ->
        note_start t s.hop start;
        if count && last then begin
          Engine.step_count_at eng ~root:start p;
          counted
        end
        else Engine.step_at eng ~root:start p
  in
  if Array.length t.engines = 1 then o
  else
    let fired = if s.hop = 0 then o.Engine.fired else s.fired in
    let next = if count && last then s.next else forward t s.hop o s.next in
    let outputs = traverse t ~count ~serial:never ~trace:None ~fired s.hop [] s.rest next in
    { Engine.outputs; fired }

(* Chain deliveries from the last hop's entry-hit counters: each fire
   of entry [e] emits one packet per forward snapshot — valid for both
   the allocating and the counting step paths. *)
let delivered t =
  let n = Array.length t.engines in
  let h = t.cp.Chainplan.hops.(n - 1) in
  let hits = t.engines.(n - 1).Engine.stats.Engine.entry_hits in
  List.fold_left
    (fun (acc, e) (entry : Nfactor.Model.entry) ->
      let emitted =
        match entry.Nfactor.Model.pkt_action with
        | Nfactor.Model.Drop -> 0
        | Nfactor.Model.Forward snaps -> List.length snaps
      in
      (acc + (hits.(e) * emitted), e + 1))
    (0, 0) h.Chainplan.h_model.Nfactor.Model.entries
  |> fst

let snapshot_hops t = Chainplan.split_store t.cp (Flowstate.snapshot t.state)

let hop_stats t =
  Array.to_list
    (Array.mapi
       (fun i (h : Chainplan.hop) -> (h.Chainplan.h_id, t.engines.(i).Engine.stats))
       t.cp.Chainplan.hops)

let evictions t = Flowstate.evictions t.state

let pp_stats ppf t =
  Fmt.pf ppf
    "chain %s: injected %d, delivered %d | fused walks %d, handoffs %d | evictions %d"
    (String.concat " -> " (Chainplan.hop_ids t.cp))
    t.injected (delivered t) t.fused_walks t.handoffs (evictions t);
  List.iter
    (fun (id, s) ->
      Fmt.pf ppf "@.  %-12s %a" id (Engine.pp_stats_of ~evictions:0) s)
    (hop_stats t)

let per_hop_obj (cp : Chainplan.t) stats =
  Nfactor.Json.List
    (List.mapi
       (fun i (id, s) ->
         Engine.stats_obj ~nf:id ~plan:cp.Chainplan.hops.(i).Chainplan.h_plan
           ~evictions:0 s)
       stats)

let stats_json t =
  Nfactor.Json.(
    to_string
      (Obj
         [
           ("chain", String (String.concat "," (Chainplan.hop_ids t.cp)));
           ("hops", Int (Chainplan.n_hops t.cp));
           ("injected", Int t.injected);
           ("delivered", Int (delivered t));
           ("fused_walks", Int t.fused_walks);
           ("handoffs", Int t.handoffs);
           ("fused_entries", Int t.cp.Chainplan.fused_entries);
           ("fused_nodes", Int t.cp.Chainplan.fused_nodes);
           ("evictions", Int (evictions t));
           ("per_hop", per_hop_obj t.cp (hop_stats t));
         ]))
