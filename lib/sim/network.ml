(* The simulated wide-area network.

   Model (see DESIGN.md §5):
   - Every node has, per destination region, a FIFO uplink whose
     capacity is the Table 1 bandwidth between the two regions.  A
     b-byte message sent at time t departs at
         depart = max(t, uplink_busy) + b / bandwidth
     and arrives at
         arrive = depart + one_way_latency + jitter.
     The uplink queue is what makes a single-primary protocol
     bandwidth-bound: a primary broadcasting large pre-prepares to five
     remote regions serializes through five finite pipes, exactly the
     bottleneck behind Figures 10 and 13 of the paper.
   - Intra-region messages use the (fast) local pipe of the same model.
   - Failure injection: crashed nodes neither send nor receive; drop
     rules model Byzantine senders/receivers that silently discard
     traffic to or from selected peers (Example 2.4 of the paper);
     region partitions sever all traffic between region pairs.  Drop
     rules carry an optional label so reversible faults (partitions,
     single-link flaps) can be removed individually — the chaos
     subsystem's heal/restore inverses.
   - Degraded links: a per-directed-link loss probability silently
     discards that fraction of traffic, and a per-link duplication
     probability delivers a second copy shortly after the first
     (retransmission storms, routing flaps).  Both draw from the
     engine's RNG only when a rule is installed, so fault-free runs
     consume an identical random stream to builds without this
     machinery.
   - One send path: [send] is a one-recipient [multicast].  Every
     per-message effect (interposition, drop rules, loss, the wire
     model, the exploration hook, duplication) runs per recipient in
     destination order; the resulting deliveries, duplicate copies and
     delayed re-sends are staged and handed to the engine as one pooled
     fan-out that reproduces the schedule of individual sends exactly
     (DESIGN.md §17).

   The payload type is polymorphic: each deployment instantiates the
   network with its protocol's message type, so no serialization round
   trip is needed inside the simulator (message *sizes* are still
   modeled explicitly — they are supplied by the sender). *)

type delivery_hook =
  src:int ->
  dst:int ->
  nth:int ->
  floor:Time.t ->
  arrive:Time.t ->
  last:Time.t option ->
  Time.t

(* Adversarial interposition (lib/adversary): [on_send] rewrites one
   outgoing message into the emissions a corrupted sender actually
   produces (payload, extra sender-side delay) — [] is targeted
   silence, tampered payloads are equivocation, extra elements are
   replays; [on_recv] lets a corrupted receiver pretend not to have
   heard a peer.  Both sit outside the bandwidth/latency model: an
   emission re-enters [send] as if the sender had behaved that way. *)
type 'm interposer = {
  on_send : src:int -> dst:int -> 'm -> ('m * Time.t) list;
  on_recv : src:int -> dst:int -> 'm -> bool;
}

type 'm t = {
  engine : Engine.t;
  topo : Topology.t;
  deliver : src:int -> dst:int -> 'm -> unit;
  (* uplink_busy.(node).(dst_region): time the pipe frees up *)
  uplink_busy : Time.t array array;
  (* Aggregate cross-region egress of each node (all WAN flows of a
     node serialize through this before their per-region pipe); 0 or
     negative disables the cap. *)
  wan_egress_mbps : float;
  wan_busy : Time.t array;
  crashed : bool array;
  (* drop_rules: if any returns true the message is silently dropped;
     the label (if any) allows selective removal *)
  mutable drop_rules : (string option * (src:int -> dst:int -> bool)) list;
  (* (src, dst) -> probability; absent = healthy link *)
  link_loss : (int * int, float) Hashtbl.t;
  link_dup : (int * int, float) Hashtbl.t;
  jitter_ms : float;
  stats : Stats.t;
  (* Optional consensus-path tracer: message lifecycle events (queue /
     tx spans, deliver / drop instants).  [None] costs one match per
     send — the zero-overhead-when-off contract. *)
  trace : Rdb_trace.Trace.t option;
  (* Schedule-exploration hook (lib/check): may adjust a message's
     arrival time within the latency model's legal envelope.  The
     per-link last-arrival table is maintained only while a hook is
     installed; [None] costs one match per send. *)
  mutable dhook : delivery_hook option;
  mutable dhook_sends : int;
  dhook_last : (int * int, Time.t) Hashtbl.t;
  (* Adversarial interposition hooks; [None] costs one match per send
     and one per delivery. *)
  mutable interpose : 'm interposer option;
  (* Engine shard owning each node: deliveries are scheduled onto the
     destination's shard (cross-shard sends are legal because the WAN
     one-way latency floor is the engine's lookahead). *)
  shard_of : int -> int;
}

let create ?(wan_egress_mbps = 0.) ?trace ?(shard_of = fun _ -> 0) ~engine ~topo ~jitter_ms
    ~deliver () =
  let n = Topology.n_nodes topo in
  let r = Topology.n_regions topo in
  {
    engine;
    topo;
    deliver;
    uplink_busy = Array.init n (fun _ -> Array.make r Time.zero);
    wan_egress_mbps;
    wan_busy = Array.make n Time.zero;
    crashed = Array.make n false;
    drop_rules = [];
    link_loss = Hashtbl.create 8;
    link_dup = Hashtbl.create 8;
    jitter_ms;
    stats = Stats.create ();
    trace;
    dhook = None;
    dhook_sends = 0;
    dhook_last = Hashtbl.create 64;
    interpose = None;
    shard_of;
  }

let stats t = t.stats
let topology t = t.topo

let set_interposer t ip = t.interpose <- ip

let set_delivery_hook t h =
  t.dhook <- h;
  t.dhook_sends <- 0;
  Hashtbl.reset t.dhook_last

let crash t node = t.crashed.(node) <- true
let recover t node = t.crashed.(node) <- false
let is_crashed t node = t.crashed.(node)

let add_drop_rule ?label t rule = t.drop_rules <- (label, rule) :: t.drop_rules

let remove_drop_rules t ~label =
  t.drop_rules <- List.filter (fun (l, _) -> l <> Some label) t.drop_rules

let clear_drop_rules t = t.drop_rules <- []

let partition_label ~ra ~rb = Printf.sprintf "partition:%d:%d" (min ra rb) (max ra rb)

(* Sever all communication between two regions (both directions);
   reversed by [heal_regions] on the same pair. *)
let partition_regions t ~ra ~rb =
  add_drop_rule ~label:(partition_label ~ra ~rb) t (fun ~src ~dst ->
      let rs = Topology.region_of t.topo src and rd = Topology.region_of t.topo dst in
      (rs = ra && rd = rb) || (rs = rb && rd = ra))

let heal_regions t ~ra ~rb = remove_drop_rules t ~label:(partition_label ~ra ~rb)

let link_label ~src ~dst = Printf.sprintf "link:%d:%d" src dst

(* Sever one directed link (a link flap's down edge); reversed by
   [restore_link]. *)
let sever_link t ~src ~dst =
  let s = src and d = dst in
  add_drop_rule ~label:(link_label ~src ~dst) t (fun ~src ~dst -> src = s && dst = d)

let restore_link t ~src ~dst = remove_drop_rules t ~label:(link_label ~src ~dst)

(* Per-directed-link degradation.  [p <= 0] heals the link. *)
let set_link_loss t ~src ~dst ~p =
  if p <= 0. then Hashtbl.remove t.link_loss (src, dst)
  else Hashtbl.replace t.link_loss (src, dst) (Float.min p 1.)

let set_link_dup t ~src ~dst ~p =
  if p <= 0. then Hashtbl.remove t.link_dup (src, dst)
  else Hashtbl.replace t.link_dup (src, dst) (Float.min p 1.)

let clear_link_rules t =
  Hashtbl.reset t.link_loss;
  Hashtbl.reset t.link_dup

let transmission_ns ~size_bytes ~bw_mbps =
  (* Mbit/s -> bytes/ns: bw * 1e6 / 8 bytes per second = bw / 8e-3 per ns *)
  let bytes_per_ns = bw_mbps *. 1e6 /. 8.0 /. 1e9 in
  Int64.of_float (Float.of_int size_bytes /. bytes_per_ns)

(* Per-link loss draw.  [Hashtbl.length] guard: the common (healthy)
   case pays no tuple-key allocation and no hash lookup; the RNG is
   still only consumed when a rule exists for this exact link, so random
   streams are unchanged. *)
let lossy t ~src ~dst =
  Hashtbl.length t.link_loss > 0
  &&
  match Hashtbl.find_opt t.link_loss (src, dst) with
  | None -> false
  | Some p -> Rdb_prng.Rng.float (Engine.rng t.engine) < p

let trace_drop t ~src ~dst ~size ~reason =
  match t.trace with
  | None -> ()
  | Some tr -> Rdb_trace.Trace.net_drop tr ~src ~dst ~size ~at:(Engine.now t.engine) ~reason

(* The healthy wire model: stats, WAN-egress + uplink serialization,
   the net_send trace span, base latency and the jitter draw.  Returns
   (earliest legal arrival, arrival).  Every side effect (busy-pipe
   updates, stats, trace, RNG consumption) happens here, once per
   admitted recipient, in the order the send loop reaches them. *)
let wire_arrival t ~src ~dst ~size =
  let now = Engine.now t.engine in
  let admitted = now in
  let local = Topology.same_region t.topo src dst in
  Stats.count_sent t.stats ~local ~size;
  let dst_region = Topology.region_of t.topo dst in
  let bw = Topology.bw_mbps t.topo ~a:src ~b:dst in
  (* Cross-region traffic first serializes through the node's
     aggregate WAN egress, then through the per-region-pair pipe. *)
  let now =
    if (not local) && t.wan_egress_mbps > 0. then begin
      let out =
        Time.add
          (Time.max now t.wan_busy.(src))
          (transmission_ns ~size_bytes:size ~bw_mbps:t.wan_egress_mbps)
      in
      t.wan_busy.(src) <- out;
      out
    end
    else now
  in
  let busy = t.uplink_busy.(src).(dst_region) in
  let start = Time.max now busy in
  let depart = Time.add start (transmission_ns ~size_bytes:size ~bw_mbps:bw) in
  t.uplink_busy.(src).(dst_region) <- depart;
  (match t.trace with
  | None -> ()
  | Some tr ->
      (* [admitted] is when the caller handed us the message; any WAN
         egress serialization shows up as queueing before [start]. *)
      Rdb_trace.Trace.net_send tr ~src ~dst ~size ~local ~now:admitted ~start ~depart);
  let delay = Time.of_ms_f (Topology.one_way_ms t.topo ~a:src ~b:dst) in
  let jitter =
    if t.jitter_ms <= 0. then Time.zero
    else Time.of_ms_f (Rdb_prng.Rng.float_range (Engine.rng t.engine) ~lo:0. ~hi:t.jitter_ms)
  in
  (* (earliest legal arrival, actual arrival): jitter is non-negative,
     so any time >= the floor is producible by the latency model. *)
  (Time.add depart delay, Time.add depart (Time.add delay jitter))

(* -- the send path ------------------------------------------------------ *)

(* One engine schedule a send makes, staged instead of performed: at
   [at] on [shard], hand [msg] to [dst] (a delivery or a dup copy) or,
   for a delayed interposer emission whose hold expires then, [readmit]
   it to the wire on the sender's shard.  A send collects these newest
   first in one list; its order is the order the engine reserves
   sequence numbers in (Engine.fanout). *)
type 'm staged = { at : Time.t; shard : int; dst : int; msg : 'm; readmit : bool }

let deliver_traced t ~src ~dst ~size msg =
  if t.crashed.(dst) then trace_drop t ~src ~dst ~size ~reason:"dst-crashed"
  else
    match t.interpose with
    | Some ip when not (ip.on_recv ~src ~dst msg) ->
        (* A corrupted receiver ignoring this peer: judged at delivery
           time, so receive-side rules are windowed by arrival like
           every other fault. *)
        trace_drop t ~src ~dst ~size ~reason:"adversary-deaf"
    | _ ->
        (match t.trace with
        | None -> ()
        | Some tr -> Rdb_trace.Trace.net_deliver tr ~src ~dst ~size ~at:(Engine.now t.engine));
        t.deliver ~src ~dst msg

(* The post-interposition half for one recipient: everything the wire
   does to a message the (possibly corrupted) sender actually emitted —
   drop rules, the loss draw, the wire model, the delivery hook, and
   the dup draw. *)
let admit t staged ~src ~dst ~size msg =
  if List.exists (fun (_, rule) -> rule ~src ~dst) t.drop_rules then begin
    Stats.count_dropped t.stats ~size;
    trace_drop t ~src ~dst ~size ~reason:"rule"
  end
  else if lossy t ~src ~dst then begin
    Stats.count_dropped t.stats ~size;
    trace_drop t ~src ~dst ~size ~reason:"loss"
  end
  else begin
    let floor, arrive = wire_arrival t ~src ~dst ~size in
    let arrive =
      match t.dhook with
      | None -> arrive
      | Some hook ->
          let nth = t.dhook_sends in
          t.dhook_sends <- nth + 1;
          let last = Hashtbl.find_opt t.dhook_last (src, dst) in
          let arrive = Time.max floor (hook ~src ~dst ~nth ~floor ~arrive ~last) in
          Hashtbl.replace t.dhook_last (src, dst)
            (match last with None -> arrive | Some l -> Time.max l arrive);
          arrive
    in
    let e = { at = arrive; shard = t.shard_of dst; dst; msg; readmit = false } in
    staged := e :: !staged;
    (* Duplication: deliver a second copy shortly after the first (a
       retransmitted or re-routed frame); receivers must deduplicate. *)
    if Hashtbl.length t.link_dup > 0 then
      match Hashtbl.find_opt t.link_dup (src, dst) with
      | Some p when Rdb_prng.Rng.float (Engine.rng t.engine) < p ->
          staged := { e with at = Time.add arrive (Time.of_ms_f 0.05) } :: !staged
      | _ -> ()
  end

(* The interposition half for one recipient: a corrupted sender's
   [on_send] turns the message into its actual emissions. *)
let emit t staged ~src ~dst ~size msg =
  match t.interpose with
  | None -> admit t staged ~src ~dst ~size msg
  | Some ip -> (
      match ip.on_send ~src ~dst msg with
      | [] ->
          (* Targeted silence: the message never touches the wire (no
             bandwidth charged), but the drop is visible to the tracer
             and the stats like any other discard. *)
          Stats.count_dropped t.stats ~size;
          trace_drop t ~src ~dst ~size ~reason:"adversary"
      | emissions ->
          let now = Engine.now t.engine in
          List.iter
            (fun (m, after) ->
              if Time.(after <= Time.zero) then admit t staged ~src ~dst ~size m
              else
                (* Delayed / slow-drip sending: the emission enters the
                   wire model when the hold expires. *)
                let shard = Engine.current_shard_id t.engine in
                staged :=
                  { at = Time.add now after; shard; dst; msg = m; readmit = true } :: !staged)
            emissions)

(* Hand everything a send staged to the engine in one pooled fan-out. *)
let rec flush t staged ~src ~size =
  match !staged with
  | [] -> ()
  | newest_first ->
      let entries = Array.of_list (List.rev newest_first) in
      Engine.fanout t.engine
        ~shards:(Array.map (fun e -> e.shard) entries)
        ~times:(Array.map (fun e -> e.at) entries)
        ~deliver:(fun i ->
          let { dst; msg; readmit; _ } = entries.(i) in
          if not readmit then deliver_traced t ~src ~dst ~size msg
          else if not t.crashed.(src) then begin
            (* Not at all if the sender crashed during the hold. *)
            let staged = ref [] in
            admit t staged ~src ~dst ~size msg;
            flush t staged ~src ~size
          end)

(* Broadcast one message to [dsts], in order.  [size] is the wire size
   in bytes (headers and authentication tags included by the caller's
   sizing function).

   This is the only way a message reaches the engine.  Every effect —
   interposition, drop rules, the loss draw, the wire model, the
   delivery hook, the dup draw — runs per recipient in destination
   order, exactly as [k] independent sends would; only the scheduling
   is pooled: one [Engine.fanout] over the staged entries reserves the
   sequence numbers the individual schedules would have taken, so the
   executed schedule is byte-identical (DESIGN.md §17). *)
let multicast t ~src ~dsts ~size msg =
  if not t.crashed.(src) then begin
    let staged = ref [] in
    List.iter (fun dst -> emit t staged ~src ~dst ~size msg) dsts;
    flush t staged ~src ~size
  end

let send t ~src ~dst ~size msg = multicast t ~src ~dsts:[ dst ] ~size msg
