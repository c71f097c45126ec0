(* Bench-side instrumentation at the protocol boundary, built from the
   public [Protocol.S] / [Ctx.t] surface only (no change to the
   program):

   - [Observe (P)] is [P] with two client-side taps: every [submit] is
     counted and every [Ctx.complete] records the batch's completion
     time, latency and op class.  Replica code runs unwrapped, so the
     untraced benchmark runs measure the program itself.
   - [Timed (P)] additionally wraps every protocol entry point
     ([on_message], [on_client_message], timer and CPU continuations)
     in a host-time span, and every [Ctx.t] capability it hands down
     ([send], [bcast], [charge], [set_timer], [execute],
     [read_execute], [complete], ...) in a nested fabric span, so the
     protocol's self time is its span minus the fabric work it calls.

   Both only observe: the same events are scheduled in the same order,
   so reports and trace digests are byte-identical to a plain run (the
   transparency test in perfbench/test pins this).  State is global to
   the process: the benchmark runs one deployment at a time on one
   domain. *)

module Ctx = Rdb_types.Ctx
module Batch = Rdb_types.Batch
module Protocol = Rdb_types.Protocol

(* -- counters ------------------------------------------------------------ *)

type counters = {
  mutable submits : int;
  mutable completions : int;
  mutable handler_calls : int;
  mutable timer_fires : int;
  mutable sends : int;
  mutable bcasts : int;
  mutable charges : int;
  mutable applies : int;
  mutable reads : int;
  mutable proto_s : float;  (* host self time inside protocol code *)
}

let c =
  {
    submits = 0;
    completions = 0;
    handler_calls = 0;
    timer_fires = 0;
    sends = 0;
    bcasts = 0;
    charges = 0;
    applies = 0;
    reads = 0;
    proto_s = 0.;
  }

(* Completion log, in execution order: batch id, simulated completion
   time and latency (ns), and whether the batch was read-only. *)
let done_id = ref (Array.make 4096 0)
let done_at = ref (Array.make 4096 0)
let done_lat = ref (Array.make 4096 0)
let done_read = ref (Bytes.make 4096 '\000')

let reset () =
  c.submits <- 0;
  c.completions <- 0;
  c.handler_calls <- 0;
  c.timer_fires <- 0;
  c.sends <- 0;
  c.bcasts <- 0;
  c.charges <- 0;
  c.applies <- 0;
  c.reads <- 0;
  c.proto_s <- 0.

(* A copy of the counters, to keep past the next [reset]. *)
let snapshot () = { c with submits = c.submits }

let grow () =
  let n = Array.length !done_at in
  let extend a = Array.append a (Array.make n 0) in
  done_id := extend !done_id;
  done_at := extend !done_at;
  done_lat := extend !done_lat;
  done_read := Bytes.extend !done_read 0 n

let record_completion (ctx : _ Ctx.t) (b : Batch.t) =
  let now = Int64.to_int (ctx.Ctx.now ()) in
  let i = c.completions in
  if i = Array.length !done_at then grow ();
  !done_id.(i) <- b.Batch.id;
  !done_at.(i) <- now;
  !done_lat.(i) <- now - Int64.to_int b.Batch.created;
  Bytes.set !done_read i (if Batch.read_only b then '\001' else '\000');
  c.completions <- i + 1

type completion = { id : int; at_ns : int; lat_ns : int; read : bool }

let completions () =
  Array.init c.completions (fun i ->
      {
        id = !done_id.(i);
        at_ns = !done_at.(i);
        lat_ns = !done_lat.(i);
        read = Bytes.get !done_read i = '\001';
      })

(* -- host-time spans ----------------------------------------------------- *)

(* Which side of the protocol boundary the host is executing: inside a
   protocol entry point, inside a capability it called, or neither.
   Each switch charges the elapsed interval to the side being left, so
   a protocol span's nested fabric calls are excluded from its self
   time exactly. *)
type side = Outside | Proto | Fabric

let side = ref Outside
let mark = ref 0.

let switch_to s =
  let t = Unix.gettimeofday () in
  if !side = Proto then c.proto_s <- c.proto_s +. (t -. !mark);
  mark := t;
  let prev = !side in
  side := s;
  prev

let within s f =
  let prev = switch_to s in
  match f () with
  | v ->
      ignore (switch_to prev);
      v
  | exception e ->
      ignore (switch_to prev);
      raise e

(* -- the wrappers --------------------------------------------------------- *)

module Observe (P : Protocol.S) : Protocol.S with type msg = P.msg = struct
  let name = P.name

  type msg = P.msg
  type replica = P.replica
  type client = P.client

  let adversary = P.adversary
  let create_replica = P.create_replica
  let on_message = P.on_message
  let view_changes = P.view_changes
  let on_recover = P.on_recover
  let recovery = P.recovery
  let disable_recovery = P.disable_recovery

  let create_client (ctx : msg Ctx.t) ~cluster =
    P.create_client
      { ctx with Ctx.complete = (fun b -> record_completion ctx b; ctx.Ctx.complete b) }
      ~cluster

  let submit cl b =
    c.submits <- c.submits + 1;
    P.submit cl b

  let on_client_message = P.on_client_message
end

module Timed (P : Protocol.S) : Protocol.S with type msg = P.msg = struct
  let name = P.name

  type msg = P.msg
  type replica = P.replica
  type client = P.client

  let adversary = P.adversary

  let handler f =
    c.handler_calls <- c.handler_calls + 1;
    within Proto f

  let fabric f = within Fabric f

  let wrap (ctx : msg Ctx.t) : msg Ctx.t =
    {
      ctx with
      Ctx.send =
        (fun ~dst ~size ~vcost m ->
          c.sends <- c.sends + 1;
          fabric (fun () -> ctx.Ctx.send ~dst ~size ~vcost m));
      bcast =
        (fun ~dsts ~size ~vcost m ->
          c.bcasts <- c.bcasts + 1;
          fabric (fun () -> ctx.Ctx.bcast ~dsts ~size ~vcost m));
      charge =
        (fun ~stage ~cost k ->
          c.charges <- c.charges + 1;
          fabric (fun () -> ctx.Ctx.charge ~stage ~cost (fun () -> handler k)));
      set_timer =
        (fun ~delay k ->
          fabric (fun () ->
              ctx.Ctx.set_timer ~delay (fun () ->
                  c.timer_fires <- c.timer_fires + 1;
                  handler k)));
      cancel_timer = (fun h -> fabric (fun () -> ctx.Ctx.cancel_timer h));
      execute =
        (fun b ~cert ~on_done ->
          fabric (fun () ->
              ctx.Ctx.execute b ~cert ~on_done:(fun r ->
                  if Option.is_some r then c.applies <- c.applies + 1;
                  handler (fun () -> on_done r))));
      read_execute =
        (fun b ~on_done ->
          fabric (fun () ->
              ctx.Ctx.read_execute b ~on_done:(fun r ->
                  c.reads <- c.reads + 1;
                  handler (fun () -> on_done r))));
      state_snapshot = (fun () -> fabric ctx.Ctx.state_snapshot);
      app_restore = (fun s -> fabric (fun () -> ctx.Ctx.app_restore s));
      ledger_read = (fun ~height -> fabric (fun () -> ctx.Ctx.ledger_read ~height));
      complete = (fun b -> fabric (fun () -> ctx.Ctx.complete b));
      phase = (fun ~key ~name -> fabric (fun () -> ctx.Ctx.phase ~key ~name));
    }

  let create_replica ctx = P.create_replica (wrap ctx)
  let on_message r ~src m = handler (fun () -> P.on_message r ~src m)
  let view_changes = P.view_changes
  let on_recover r = handler (fun () -> P.on_recover r)
  let recovery = P.recovery
  let disable_recovery = P.disable_recovery

  let create_client (ctx : msg Ctx.t) ~cluster =
    let ctx = { ctx with Ctx.complete = (fun b -> record_completion ctx b; ctx.Ctx.complete b) } in
    P.create_client (wrap ctx) ~cluster

  let submit cl b =
    c.submits <- c.submits + 1;
    handler (fun () -> P.submit cl b)

  let on_client_message cl ~src m = handler (fun () -> P.on_client_message cl ~src m)
end
