(* One benchmark repetition: build a deployment of an instrumented
   protocol, run the workload's windows, drain, check correctness, and
   collect every number the benchmark reports.

   The deployment is wired exactly as [Runner.run] wires it (same
   record count, compact ledgers, sharded engine, same adversary
   runtime and chaos surface), so a repetition's report is the
   report [Runner.run] gives for the same scenario; the benchmark's
   tests pin that. *)

module Config = Rdb_types.Config
module Interpose = Rdb_types.Interpose
module App = Rdb_types.App
module Time = Rdb_sim.Time
module Engine = Rdb_sim.Engine
module Network = Rdb_sim.Network
module Report = Rdb_fabric.Report
module Deployment = Rdb_fabric.Deployment
module Ledger = Rdb_ledger.Ledger
module Keychain = Rdb_crypto.Keychain
module Chaos = Rdb_chaos.Chaos
module Adversary = Rdb_adversary.Adversary
module Runner = Rdb_experiments.Runner
module Scenario = Rdb_experiments.Scenario
module Trace = Rdb_trace.Trace

(* -- workloads ------------------------------------------------------------ *)

type workload = {
  name : string;
  shape : string;  (* scenario id without its seed token *)
  timeline_seed : int option;
      (* chaos: run the fault timeline [fault=chaos:N] plans at
         deployment seed 1, whatever the workload seed *)
}

let workloads =
  [
    { name = "geobft-base"; shape = "geobft z4 n7 b100 i64 w1000+4000"; timeline_seed = None };
    { name = "pbft-base"; shape = "pbft z4 n7 b100 i64 w1000+4000"; timeline_seed = None };
    { name = "geobft-readmix-disk";
      shape = "geobft z4 n4 b100 i64 w1000+3000 reads=0.5 scans=0.1 storage=disk";
      timeline_seed = None };
    { name = "geobft-chaos"; shape = "geobft z4 n7 b100 i64 w1000+4000"; timeline_seed = Some 1 };
  ]

let find_workload name = List.find_opt (fun w -> w.name = name) workloads

let scenario w ~seed =
  match Scenario.of_string (Printf.sprintf "%s seed%d" w.shape seed) with
  | Some s -> s
  | None -> invalid_arg ("perfbench: bad scenario shape " ^ w.shape)

let chaos_timeline w =
  match w.timeline_seed with
  | None -> None
  | Some ts ->
      let s = scenario w ~seed:1 in
      Some (Runner.chaos_timeline s.Scenario.proto ~windows:s.Scenario.windows ~seed:ts s.Scenario.cfg)

(* -- deployments ------------------------------------------------------------ *)

module type DEP = sig
  type t
  type msg

  val create :
    ?trace:bool ->
    ?tracer:Trace.t ->
    ?n_records:int ->
    ?retain_payloads:bool ->
    ?sharded:bool ->
    ?store_dir:string ->
    Config.t ->
    t

  val close : t -> unit
  val run : ?warmup:Time.t -> ?measure:Time.t -> ?jobs:int -> t -> Report.t
  val engine : t -> Engine.t
  val network : t -> msg Deployment.packet Network.t
  val ledger : t -> replica:int -> Ledger.t
  val app : t -> replica:int -> App.t
  val table : t -> replica:int -> Rdb_ycsb.Table.t
  val is_crashed : t -> int -> bool
  val pause_client : t -> cluster:int -> unit
  val crash_replica : t -> int -> unit
  val recover_replica : t -> int -> unit
  val partition_clusters : t -> ca:int -> cb:int -> unit
  val heal_clusters : t -> ca:int -> cb:int -> unit
  val sever_link : t -> src:int -> dst:int -> unit
  val restore_link : t -> src:int -> dst:int -> unit
  val set_link_loss : t -> src:int -> dst:int -> p:float -> unit
  val set_link_dup : t -> src:int -> dst:int -> p:float -> unit
  val at : t -> time:Time.t -> (unit -> unit) -> unit
  val keychain : t -> Keychain.t
  val adversary_view : msg Interpose.view
  val set_interposer : t -> msg Interpose.t option -> unit
end

module Geo_plain = Deployment.Make (Probe.Observe (Rdb_geobft.Replica))
module Geo_timed = Deployment.Make (Probe.Timed (Rdb_geobft.Replica))
module Pbft_plain = Deployment.Make (Probe.Observe (Rdb_pbft.Replica))
module Pbft_timed = Deployment.Make (Probe.Timed (Rdb_pbft.Replica))

type dep = Dep : (module DEP with type t = 'a and type msg = 'm) -> dep

let dep (proto : Scenario.proto) ~timed =
  match (proto, timed) with
  | Scenario.Geobft, false -> Dep (module Geo_plain)
  | Scenario.Geobft, true -> Dep (module Geo_timed)
  | Scenario.Pbft, false -> Dep (module Pbft_plain)
  | Scenario.Pbft, true -> Dep (module Pbft_timed)
  | p, _ -> invalid_arg ("perfbench: no instrumented deployment for " ^ Scenario.proto_name p)

(* -- one repetition ---------------------------------------------------------- *)

type rep = {
  traced : bool;
  drained : bool;
  setup_s : float;  (* deployment construction up to the first event *)
  run_s : float;  (* warm-up + measurement, host wall clock *)
  post_s : float;  (* drain and checks *)
  report : Report.t option;  (* [None]: the run raised *)
  events : int;
  horizon_ns : int;  (* simulated end of warm-up + measurement *)
  log : Probe.completion array;  (* client completions up to the horizon, in order *)
  batches : int;  (* client completions inside the window *)
  max_stall_ms : float;
  read_batches : int;
  read_fallbacks : int;
  read_p99_ms : float;
  submitted : int;
  unfinished : int;  (* submitted, not completed after the drain (or the run) *)
  failures : string list;
  minor_mwords : float;
  major_collections : int;
  dropped : int;
  log_mb : float;
  counters : Probe.counters;
  layers : (string * float) list;  (* sampler self seconds, traced reps only *)
}

let clock = Unix.gettimeofday

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rec tree_bytes path =
  match Sys.is_directory path with
  | true -> Array.fold_left (fun acc f -> acc + tree_bytes (Filename.concat path f)) 0 (Sys.readdir path)
  | false -> (Unix.stat path).Unix.st_size
  | exception Sys_error _ -> 0

(* The chaos surface, the adversary runtime and the equivocation
   action, wired as [Runner] wires them. *)
let chaos_wiring (type a m) (module D : DEP with type t = a and type msg = m) (d : a)
    (proto : Scenario.proto) (cfg : Config.t) =
  let rt =
    Adversary.Runtime.create ~view:D.adversary_view ~keychain:(D.keychain d)
      ~now:(fun () -> Engine.now (D.engine d))
      ~n:cfg.Config.n
      ~install:(fun h -> D.set_interposer d h)
  in
  let equivocate ~cluster ~skip =
    Adversary.Runtime.set rt
      ~name:("chaos-equiv-" ^ string_of_int cluster)
      (List.init cfg.Config.n (fun i ->
           Adversary.always
             ~actor:((cluster * cfg.Config.n) + i)
             (Adversary.Silence { cls = Some Interpose.Share; dst = Adversary.Clusters skip })))
  in
  let stop_equivocate ~cluster =
    Adversary.Runtime.clear rt ~name:("chaos-equiv-" ^ string_of_int cluster)
  in
  let caps, agreement, liveness_window_ms = Runner.chaos_profile proto cfg in
  let surface =
    {
      Chaos.z = cfg.Config.z;
      n = cfg.Config.n;
      f = Config.f cfg;
      caps;
      agreement;
      crash = (fun v -> D.crash_replica d v);
      recover = (fun v -> D.recover_replica d v);
      partition = (fun ~ca ~cb -> D.partition_clusters d ~ca ~cb);
      heal = (fun ~ca ~cb -> D.heal_clusters d ~ca ~cb);
      sever_link = (fun ~src ~dst -> D.sever_link d ~src ~dst);
      restore_link = (fun ~src ~dst -> D.restore_link d ~src ~dst);
      set_link_loss = (fun ~src ~dst ~p -> D.set_link_loss d ~src ~dst ~p);
      set_link_dup = (fun ~src ~dst ~p -> D.set_link_dup d ~src ~dst ~p);
      equivocate;
      stop_equivocate;
      ledger = (fun r -> D.ledger d ~replica:r);
      now = (fun () -> Engine.now (D.engine d));
      at = (fun time k -> D.at d ~time k);
    }
  in
  (surface, liveness_window_ms)

(* Latency and stall figures over the window's completions. *)
let window_stats (s : Scenario.t) log =
  let w0 = Int64.to_int s.Scenario.windows.Scenario.warmup in
  let w1 = w0 + Int64.to_int s.Scenario.windows.Scenario.measure in
  let inside =
    List.filter (fun (x : Probe.completion) -> x.at_ns > w0 && x.at_ns <= w1) (Array.to_list log)
  in
  let ms ns = Time.to_ms_f (Int64.of_int ns) in
  let lat xs = Stats.sorted (List.map (fun (x : Probe.completion) -> ms x.lat_ns) xs) in
  let times = Array.of_list (List.sort compare (List.map (fun (x : Probe.completion) -> x.at_ns) inside)) in
  let stall = ref 0 and prev = ref w0 in
  Array.iter (fun t -> stall := max !stall (t - !prev); prev := t) times;
  stall := max !stall (w1 - !prev);
  let reads = List.filter (fun (x : Probe.completion) -> x.read) inside in
  let timeout_ns = int_of_float (s.Scenario.cfg.Config.client_timeout_ms *. 1e6) in
  ( lat inside,
    ms !stall,
    List.length reads,
    List.length (List.filter (fun (x : Probe.completion) -> x.lat_ns >= timeout_ns) reads),
    lat reads )

(* Safety at the end of a repetition: live replicas' ledgers are
   prefix-compatible, and live replicas at equal height hold equal
   state.  A replica's [state_digest] is a hash of its record array
   alone, so the arrays are compared directly (a memory compare instead
   of one SHA-256 pass over 600k records per replica). *)
let state_checks (type a m) (module D : DEP with type t = a and type msg = m) (d : a)
    (cfg : Config.t) =
  let live = List.filter (fun r -> not (D.is_crashed d r)) (List.init (Config.n_replicas cfg) Fun.id) in
  let failures = ref [] in
  if not (Ledger.agreement (List.map (fun r -> D.ledger d ~replica:r) live)) then
    failures := "live replicas' ledgers disagree on their common prefix" :: !failures;
  let by_height = Hashtbl.create 8 in
  List.iter
    (fun r ->
      let h = (D.app d ~replica:r).App.height () in
      let records = Rdb_ycsb.Table.records (D.table d ~replica:r) in
      match Hashtbl.find_opt by_height h with
      | None -> Hashtbl.replace by_height h (r, records)
      | Some (r0, records0) ->
          if records0 <> records then
            failures :=
              Printf.sprintf "replicas %d and %d differ in state at height %d" r0 r h :: !failures)
    live;
  !failures

(* Set-up: construct the deployment and arm the chaos timeline, if any,
   with its invariant monitor — everything before the first simulated
   event. *)
let build (type a m) (module D : DEP with type t = a and type msg = m) ?tracer ?timeline
    ?store_dir (s : Scenario.t) =
  let cfg = s.Scenario.cfg in
  let d =
    D.create ?tracer ~n_records:Rdb_ycsb.Table.default_records ~retain_payloads:false ?store_dir
      cfg
  in
  let monitor =
    Option.map
      (fun tl ->
        let surface, liveness_window_ms = chaos_wiring (module D) d s.Scenario.proto cfg in
        Chaos.install surface tl;
        Chaos.monitor ~liveness_window_ms surface tl)
      timeline
  in
  (d, monitor)

(* One repetition.  [measure] overrides the workload's measurement
   window (a shortened repeat of the same seed). *)
let run_rep ?timeline ?store_dir ?measure ~drain ~traced (w : workload) ~seed : rep =
  let s = scenario w ~seed in
  let s =
    match measure with
    | None -> s
    | Some measure -> { s with Scenario.windows = { s.Scenario.windows with Scenario.measure } }
  in
  let cfg = s.Scenario.cfg and windows = s.Scenario.windows in
  let (Dep (module D)) = dep s.Scenario.proto ~timed:traced in
  Gc.compact ();
  Probe.reset ();
  let tracer = if traced then Some (Trace.create ()) else None in
  let t0 = clock () in
  let d, monitor = build (module D) ?tracer ?timeline ?store_dir s in
  let t1 = clock () in
  let gc0 = Gc.quick_stat () in
  if traced then Sampler.start ();
  let outcome = try Ok (D.run ~warmup:windows.Scenario.warmup ~measure:windows.Scenario.measure ~jobs:1 d)
    with e -> Error (Printexc.to_string e) in
  let t2 = clock () in
  if traced then Sampler.stop ();
  let gc1 = Gc.quick_stat () in
  let events = Engine.executed_events (D.engine d) in
  let log = Probe.completions () in
  let counters = Probe.snapshot () in
  let layers =
    if traced then
      List.map (fun l -> (l, Sampler.self_s l))
        [ "sim.engine"; "sim.network"; "sim.cpu"; "crypto"; "crypto.by_storage";
          "crypto.by_protocol"; "crypto.by_trace"; "crypto.by_fabric"; "storage"; "ledger"; "ycsb"; "fabric";
          "recovery"; "chaos"; "adversary"; "trace"; "other" ]
    else []
  in
  let failures = ref [] in
  let fail msg = failures := msg :: !failures in
  (match monitor with
  | None -> ()
  | Some mon -> (
      Chaos.check_now mon;
      match Chaos.first_violation mon with
      | Some v -> fail ("chaos invariant violated: " ^ Chaos.violation_to_string v)
      | None -> ()));
  (* Drain: stop every client group and give in-flight batches one
     client timeout plus a second to complete (a bypass read that
     times out falls back onto consensus).  Only requested repetitions
     drain: a traced deployment's tracer is finalized by [run], and
     repeats of one seed would only drain the same batches again. *)
  if Result.is_ok outcome && drain then begin
    for cluster = 0 to cfg.Config.z - 1 do
      D.pause_client d ~cluster
    done;
    let e = D.engine d in
    (try
       Engine.run_until e
         ~until:(Time.add (Engine.now e) (Time.of_ms_f (cfg.Config.client_timeout_ms +. 1000.)))
     with ex -> fail ("drain: " ^ Printexc.to_string ex))
  end;
  let unfinished = Probe.c.Probe.submits - Probe.c.Probe.completions in
  let lat, max_stall_ms, read_batches, read_fallbacks, read_lat = window_stats s log in
  (match outcome with
  | Error msg -> fail ("run raised " ^ msg)
  | Ok r ->
    failures := state_checks (module D) d cfg @ !failures;
    if Array.length lat <> r.Report.completed_batches then
      fail (Printf.sprintf "observed %d window completions, report has %d" (Array.length lat)
              r.Report.completed_batches);
    if Stats.percentile lat 0.50 <> r.Report.p50_latency_ms
       || Stats.percentile lat 0.99 <> r.Report.p99_latency_ms
       || Stats.percentile read_lat 0.99 <> r.Report.read_p99_latency_ms
    then fail "observed latency percentiles differ from the report's");
  let t3 = clock () in
  D.close d;
  let log_mb =
    match store_dir with
    | None -> 0.
    | Some dir ->
        let b = tree_bytes dir in
        remove_tree dir;
        float_of_int b /. 1e6
  in
  {
    traced;
    drained = drain;
    setup_s = t1 -. t0;
    run_s = t2 -. t1;
    post_s = t3 -. t2;
    report = Result.to_option outcome;
    events;
    horizon_ns = Int64.to_int (Time.add windows.Scenario.warmup windows.Scenario.measure);
    log;
    batches = Array.length lat;
    max_stall_ms;
    read_batches;
    read_fallbacks;
    read_p99_ms = Stats.percentile read_lat 0.99;
    submitted = counters.Probe.submits;
    unfinished;
    failures = List.rev !failures;
    minor_mwords = (gc1.Gc.minor_words -. gc0.Gc.minor_words) /. 1e6;
    major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
    dropped = Rdb_sim.Stats.dropped_msgs (Network.stats (D.network d));
    log_mb;
    counters;
    layers;
  }

(* Set-up alone, then tear down. *)
let setup_only ?timeline ?store_dir (w : workload) ~seed =
  let s = scenario w ~seed in
  let (Dep (module D)) = dep s.Scenario.proto ~timed:false in
  Gc.compact ();
  let t0 = clock () in
  let d, _ = build (module D) ?timeline ?store_dir s in
  let t1 = clock () in
  D.close d;
  Option.iter remove_tree store_dir;
  t1 -. t0

(* What must repeat exactly between two repetitions of one seed over
   the same windows: the window report (minus the trace summary, which
   only traced repetitions carry), the executed-event count and every
   client completion. *)
let fingerprint r =
  ( Option.map (fun rp -> Report.to_json_string { rp with Report.trace = None }) r.report,
    r.events,
    r.log )

(* A shortened repeat must reproduce the full repetition's completions
   up to its own horizon, in order, at the same simulated times. *)
let same_prefix ~full ~short =
  let upto r = List.filter (fun (x : Probe.completion) -> x.at_ns <= short.horizon_ns) (Array.to_list r.log) in
  short.report <> None && upto full = upto short
