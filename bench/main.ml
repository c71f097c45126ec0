(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (§4) and runs Bechamel micro-benchmarks of the
   substrates.  All experiment grids are enumerated as Scenario.t
   lists (the same lists `rdb_cli sweep` uses) and executed through
   the multicore sweep engine.

   Usage:
     dune exec bench/main.exe                 # everything (default windows)
     dune exec bench/main.exe -- fig10        # one artifact
     dune exec bench/main.exe -- fig12 fig13
     dune exec bench/main.exe -- -j 8 all     # 8 worker domains
     dune exec bench/main.exe -- --full all   # paper-length windows
     dune exec bench/main.exe -- micro        # Bechamel micro-benchmarks

   Artifacts: table1 table2 fig10 fig11 fig12 fig13 ablations micro.
   EXPERIMENTS.md records the paper's reported values next to the
   numbers these runs produce. *)

module Runner = Rdb_experiments.Runner
module Scenario = Rdb_experiments.Scenario
module Figures = Rdb_experiments.Figures
module Tables = Rdb_experiments.Tables
module Ablations = Rdb_experiments.Ablations
module Sweep = Rdb_sweep.Sweep
module Config = Rdb_types.Config
module Adversary = Rdb_adversary.Adversary
module Report = Rdb_fabric.Report
module Json = Rdb_fabric.Json

let say fmt = Printf.printf fmt

let jobs_ref = ref (Sweep.default_jobs ())

(* Run one scenario grid through the sweep engine, failing loudly if
   any scenario failed (bench grids contain no chaos faults, so a
   failure is always a bug). *)
let sweep scenarios = Sweep.reports_exn (Sweep.run ~jobs:!jobs_ref scenarios)

(* -- machine-readable results (BENCH_results.json) ------------------------ *)

(* Every artifact run is recorded as its wall time plus the labeled
   deployment reports it produced, and the whole session is written to
   BENCH_results.json so the perf trajectory is diffable across PRs. *)
type artifact = { a_name : string; a_wall_s : float; a_runs : (string * Report.t) list }

let artifacts : artifact list ref = ref []

let record name wall runs =
  artifacts := { a_name = name; a_wall_s = wall; a_runs = runs } :: !artifacts

let timed name ?(runs = fun _ -> []) f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let wall = Unix.gettimeofday () -. t0 in
  say "[%s done in %.1fs]\n%!" name wall;
  record name wall (runs r);
  r

let write_results ~windows () =
  let doc =
    Json.Obj
      [
        ("schema", Json.Int 2);
        ("generated_unix", Json.Float (Float.round (Unix.time ())));
        ("jobs", Json.Int !jobs_ref);
        ( "windows",
          Json.Obj
            [
              ("warmup_s", Json.Float (Rdb_sim.Time.to_sec_f windows.Runner.warmup));
              ("measure_s", Json.Float (Rdb_sim.Time.to_sec_f windows.Runner.measure));
            ] );
        ( "artifacts",
          Json.List
            (List.rev_map
               (fun a ->
                 Json.Obj
                   [
                     ("name", Json.String a.a_name);
                     ("wall_s", Json.Float a.a_wall_s);
                     ( "runs",
                       Json.List
                         (List.map
                            (fun (label, r) ->
                              Json.Obj
                                [ ("label", Json.String label); ("report", Report.to_json r) ])
                            a.a_runs) );
                   ])
               !artifacts) );
      ]
  in
  let oc = open_out "BENCH_results.json" in
  output_string oc (Json.to_string doc);
  close_out oc;
  say "wrote BENCH_results.json (%d artifacts)\n%!" (List.length !artifacts)

(* -- bench smoke + regression gate ----------------------------------------- *)

(* One small fixed-seed run per protocol.  The simulator is
   deterministic, so for a given binary these numbers are exactly
   reproducible; the CI gate compares them against bench/baseline.json
   with a tolerance that absorbs legitimate cross-version drift. *)
let smoke_windows = { Runner.warmup = Rdb_sim.Time.ms 500; measure = Rdb_sim.Time.ms 1500 }
let smoke_cfg () = Config.make ~z:2 ~n:4 ~batch_size:50 ~client_inflight:16 ~seed:1 ()

(* One adversary scenario rides along in the smoke matrix: a corrupted
   cluster-0 primary silencing its global shares toward remote
   clusters for most of the measured window.  GeoBFT absorbs it (f=1
   per cluster; the f+1 fan-out and local rebroadcast route around the
   muted sender), so the entry pins the cost of a *live* interposition
   hook — the other five entries keep pinning the hook's disabled
   path, which must stay at its pre-adversary numbers. *)
let smoke_attack () =
  match Adversary.Attack.of_id "0@600:1400!mute.share.rem" with
  | Some a -> a
  | None -> failwith "bench: unparseable smoke attack id"

let smoke_scenarios () =
  List.map (fun p -> Scenario.make ~windows:smoke_windows p (smoke_cfg ())) Runner.all_protocols
  @ [ Scenario.make ~windows:smoke_windows ~attack:(smoke_attack ()) Scenario.Geobft (smoke_cfg ());
      (* The read-heavy entry pins the read-path consensus bypass: 50%
         of batches are point reads and 10% scans, served from replica
         state at f+1 matching result digests, so its throughput and
         latency move whenever the bypass (or the storage seam under
         it) changes cost. *)
      Scenario.make ~windows:smoke_windows Scenario.Geobft
        { (smoke_cfg ()) with Config.read_fraction = 0.5; scan_fraction = 0.1 };
      (* The large-topology entry pins the scaling work of DESIGN.md
         §17: 8 tiled regions, 31 replicas each, 16k aggregated
         clients — so pooled multicast fan-out, client-group ticks and
         tiled-topology routing all sit on its critical path.  A short
         window keeps the entry's share of the gate under ~10 s. *)
      Scenario.make
        ~windows:{ Runner.warmup = Rdb_sim.Time.ms 300; measure = Rdb_sim.Time.ms 700 }
        Scenario.Geobft
        (Config.make ~z:8 ~n:31 ~clients:16_000 ~seed:1 ()) ]

let smoke_runs ?(trace = false) () =
  List.map
    (fun ((s : Scenario.t), r) ->
      say "  %s\n%!" (Report.to_string r);
      (s, r))
    (sweep (List.map (fun s -> { s with Scenario.trace }) (smoke_scenarios ())))

let run_smoke () =
  timed "smoke"
    ~runs:(List.map (fun ((s : Scenario.t), r) -> (Scenario.proto_name s.Scenario.proto, r)))
    (fun () ->
      say "== bench smoke (z=2 n=4 batch=50, 0.5s + 1.5s) ==\n%!";
      smoke_runs ())

(* Baseline file: written by --write-baseline, committed as
   bench/baseline.json, checked by --check (the CI regression gate).
   The runs are keyed by Scenario.to_string ids, so the gate
   re-derives its matrix from the baseline file itself.  Schema 3
   carries per-metric tolerance bands: simulated throughput moves more
   than latency when event interleavings shift, so the two metrics get
   independent bands.  The trace digests of the same runs are
   committed next to it (bench/digests.txt) and gated exactly. *)
let default_thr_tolerance = 10.0
let default_lat_tolerance = 10.0

type tolerances = { tol_thr : float; tol_lat : float }

let tolerance_of t = function
  | "throughput_txn_s" -> t.tol_thr
  | _ -> t.tol_lat

let write_baseline path runs =
  let doc =
    Json.Obj
      [
        ("schema", Json.Int 3);
        ( "tolerances",
          Json.Obj
            [
              ("throughput_txn_s", Json.Float default_thr_tolerance);
              ("avg_latency_ms", Json.Float default_lat_tolerance);
            ] );
        ( "runs",
          Json.List
            (List.map
               (fun ((s : Scenario.t), (r : Report.t)) ->
                 Json.Obj
                   [
                     ("scenario", Json.String (Scenario.to_string s));
                     ("throughput_txn_s", Json.Float r.Report.throughput_txn_s);
                     ("avg_latency_ms", Json.Float r.Report.avg_latency_ms);
                   ])
               runs) );
      ]
  in
  let oc = open_out path in
  output_string oc (Json.to_string doc);
  close_out oc;
  say "wrote %s (%d scenarios)\n%!" path (List.length runs)

type baseline_run = { b_scenario : Scenario.t; b_thr : float; b_lat : float }

let parse_baseline path =
  let ic = open_in path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let fail fmt = Printf.ksprintf (fun m -> say "bench --check: %s\n" m; exit 2) fmt in
  match Json.of_string s with
  | Error msg -> fail "cannot parse %s: %s" path msg
  | Ok doc ->
      (match Option.bind (Json.member "schema" doc) Json.to_int with
      | Some 3 -> ()
      | Some v ->
          fail
            "%s has schema %d, expected 3 (re-baseline with: dune exec bench/main.exe -- \
             --write-baseline %s)"
            path v path
      | None -> fail "%s carries no schema field" path);
      let tolerance name =
        match
          Option.bind (Json.member "tolerances" doc) (fun t ->
              Option.bind (Json.member name t) Json.to_float)
        with
        | Some t -> t
        | None -> fail "%s has no tolerance for %s" path name
      in
      let tolerances =
        { tol_thr = tolerance "throughput_txn_s"; tol_lat = tolerance "avg_latency_ms" }
      in
      let runs =
        match Option.bind (Json.member "runs" doc) Json.to_list with
        | Some runs -> runs
        | None -> fail "%s has no runs" path
      in
      let parse_run rj =
        let str name = Option.bind (Json.member name rj) Json.to_str in
        let num name = Option.bind (Json.member name rj) Json.to_float in
        match (str "scenario", num "throughput_txn_s", num "avg_latency_ms") with
        | Some id, Some b_thr, Some b_lat -> (
            match Scenario.of_string id with
            | Some b_scenario -> { b_scenario; b_thr; b_lat }
            | None -> fail "unparseable scenario id %S" id)
        | _ -> fail "ill-formed baseline run entry"
      in
      (tolerances, List.map parse_run runs)

(* Trace digests, one "<digest> <scenario id>" line per traced run, in
   run order: written to BENCH_digests.txt by every --check (a CI
   artifact) and to bench/digests.txt by --write-baseline. *)
let digests_path baseline = Filename.concat (Filename.dirname baseline) "digests.txt"

let digest_lines runs =
  List.map
    (fun ((s : Scenario.t), (r : Report.t)) ->
      let digest =
        match r.Report.trace with Some tr -> tr.Rdb_trace.Trace.digest_hex | None -> "-"
      in
      (Scenario.to_string s, digest))
    runs

let write_digests path lines =
  let oc = open_out path in
  List.iter (fun (id, digest) -> Printf.fprintf oc "%s %s\n" digest id) lines;
  close_out oc;
  say "wrote %s (%d scenarios)\n%!" path (List.length lines)

let read_digests path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         match String.index_opt line ' ' with
         | Some i ->
             Some (String.sub line (i + 1) (String.length line - i - 1), String.sub line 0 i)
         | None -> None)

(* The exact half of the gate: the simulator is deterministic, so every
   traced run must reproduce its committed digest to the byte.  Any
   changed, missing or extra line is a failure naming its scenario.
   Returns the number of failures. *)
let check_digests path fresh =
  let committed = read_digests path in
  let failures = ref 0 in
  let fail fmt =
    incr failures;
    say fmt
  in
  List.iter
    (fun (id, got) ->
      match List.assoc_opt id committed with
      | None -> fail "  EXTRA    %s: digest %s has no line in %s\n%!" id got path
      | Some want when want <> got -> fail "  CHANGED  %s: digest %s, committed %s\n%!" id got want
      | Some _ -> say "  SAME     %s: digest identical\n%!" id)
    fresh;
  List.iter
    (fun (id, _) ->
      if not (List.mem_assoc id fresh) then
        fail "  MISSING  %s: committed digest not reproduced\n%!" id)
    committed;
  !failures

(* The CI regression gate: rerun every baseline scenario (through the
   sweep engine), compare per-scenario throughput and average latency
   against the committed values, exit non-zero if any metric drifts
   beyond the tolerance or any trace digest differs from
   bench/digests.txt.  The current run matrix is cross-checked
   against the baseline's coverage: a matrix scenario with no baseline
   entry is a MISSING failure (otherwise newly added scenarios would
   silently escape the gate).  Good-direction drift beyond the band is
   reported as IMPROVED — not a failure, but a nudge to refresh the
   baseline so the band stays centred on reality.  Re-baseline with:
     dune exec bench/main.exe -- --write-baseline bench/baseline.json *)
(* Median of an odd (or even) number of repetitions: sort and take the
   middle, averaging the two central values for even counts. *)
let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let run_check ?(reps = 3) path =
  let tolerances, baseline = parse_baseline path in
  if baseline = [] then begin
    say "bench --check: no runs found in %s\n" path;
    exit 2
  end;
  say
    "== bench regression check against %s (median of %d, tolerance thr %.0f%% / lat %.0f%%) ==\n%!"
    path reps tolerances.tol_thr tolerances.tol_lat;
  let covered = List.map (fun b -> Scenario.to_string b.b_scenario) baseline in
  let missing =
    List.filter
      (fun s -> not (List.mem (Scenario.to_string s) covered))
      (smoke_scenarios ())
  in
  List.iter
    (fun s -> say "  MISSING  %s has no baseline entry\n%!" (Scenario.to_string s))
    missing;
  (* Each repetition reruns the full baseline matrix with tracing on:
     the simulator is deterministic, so the median mainly de-flakes
     environmental effects (CI machine contention skewing any run that
     touches wall-clock), and the trace digests come along for free as
     a cross-PR artifact.  Tracing is observational — it never perturbs
     the simulated schedule — so the traced rerun reproduces the
     baseline numbers exactly. *)
  let traced = List.map (fun b -> { b.b_scenario with Scenario.trace = true }) baseline in
  let rep_runs =
    List.init reps (fun i ->
        let t0 = Unix.gettimeofday () in
        let runs = sweep traced in
        say "  [rep %d/%d done in %.1fs]\n%!" (i + 1) reps (Unix.gettimeofday () -. t0);
        record (Printf.sprintf "check-rep-%d" (i + 1)) (Unix.gettimeofday () -. t0)
          (List.map (fun ((s : Scenario.t), r) -> (Scenario.to_string s, r)) runs);
        runs)
  in
  (* Trace digests (deterministic: any rep, any -j, same digest) —
     uploaded as a CI artifact next to BENCH_results.json, and gated
     exactly against the committed file. *)
  let digests = digest_lines (List.hd rep_runs) in
  write_digests "BENCH_digests.txt" digests;
  let digest_failures = check_digests (digests_path path) digests in
  let failures = ref 0 and improved = ref 0 in
  let check id metric ~base ~got =
    let tolerance = tolerance_of tolerances metric in
    let drift = (got -. base) /. base *. 100. in
    (* Higher throughput / lower latency than baseline is never a
       regression; only flag drift in the bad direction.  Drift beyond
       the band in the *good* direction means the baseline has gone
       stale — call it out without failing. *)
    let bad, good =
      match metric with
      | "throughput_txn_s" -> (drift < -.tolerance, drift > tolerance)
      | _ -> (drift > tolerance, drift < -.tolerance)
    in
    say "  %-40s %-18s baseline %10.1f  got %10.1f  (%+.1f%%) %s\n%!" id metric base got drift
      (if bad then "FAIL" else if good then "IMPROVED" else "ok");
    if bad then incr failures;
    if good then incr improved
  in
  List.iteri
    (fun i b ->
      let id = Scenario.to_string b.b_scenario in
      let nth_metric f = median (List.map (fun runs -> f (snd (List.nth runs i))) rep_runs) in
      check id "throughput_txn_s" ~base:b.b_thr
        ~got:(nth_metric (fun (r : Report.t) -> r.Report.throughput_txn_s));
      check id "avg_latency_ms" ~base:b.b_lat
        ~got:(nth_metric (fun (r : Report.t) -> r.Report.avg_latency_ms)))
    baseline;
  write_results ~windows:smoke_windows ();
  if !improved > 0 then
    say
      "bench --check: %d metric(s) improved beyond the band; consider refreshing the \
       baseline (dune exec bench/main.exe -- --write-baseline %s)\n"
      !improved path;
  if !failures > 0 || missing <> [] || digest_failures > 0 then begin
    if !failures > 0 then say "bench --check: %d metric(s) regressed beyond tolerance\n" !failures;
    if digest_failures > 0 then
      say
        "bench --check: %d trace digest line(s) differ from %s (re-baseline with: dune exec \
         bench/main.exe -- --write-baseline %s)\n"
        digest_failures (digests_path path) path;
    if missing <> [] then
      say
        "bench --check: %d run-matrix scenario(s) missing from %s (re-baseline with: dune exec \
         bench/main.exe -- --write-baseline %s)\n"
        (List.length missing) path path;
    exit 1
  end;
  say
    "bench --check: all %d scenarios within tolerance of baseline (median of %d), trace \
     digests identical\n"
    (List.length baseline) reps

(* -- Bechamel micro-benchmarks ----------------------------------------------- *)

let micro_tests () =
  let open Bechamel in
  let sha_payload = String.make 5400 'x' in
  let cmac_key = Rdb_crypto.Cmac.of_key (String.make 16 'k') in
  let sk = Rdb_crypto.Schnorr.keygen ~seed:"bench" ~key_id:0 in
  let pk = Rdb_crypto.Schnorr.public_key sk in
  let sg = Rdb_crypto.Schnorr.sign sk "payload" in
  let zipf = Rdb_prng.Zipf.create Rdb_ycsb.Table.default_records in
  let zipf_rng = Rdb_prng.Rng.create 1L in
  let mk name f = Test.make ~name (Staged.stage f) in
  [
    mk "sha256-5400B" (fun () -> ignore (Rdb_crypto.Sha256.digest sha_payload));
    mk "aes-cmac-250B" (fun () ->
        ignore (Rdb_crypto.Cmac.mac cmac_key (String.sub sha_payload 0 250)));
    mk "schnorr-sign" (fun () -> ignore (Rdb_crypto.Schnorr.sign sk "payload"));
    mk "schnorr-verify" (fun () -> ignore (Rdb_crypto.Schnorr.verify pk "payload" sg));
    mk "sim-10k-events" (fun () ->
        let e = Rdb_sim.Engine.create () in
        for i = 1 to 10_000 do
          ignore (Rdb_sim.Engine.schedule_at e ~at:(Int64.of_int i) (fun () -> ()))
        done;
        Rdb_sim.Engine.run e);
    mk "zipf-sample-600k" (fun () -> ignore (Rdb_prng.Zipf.sample_scrambled zipf zipf_rng));
  ]
  (* One deployment benchmark per protocol: the full cost of simulating
     half a second of a small geo deployment. *)
  @ List.map
      (fun p ->
        Test.make
          ~name:(Printf.sprintf "sim-0.5s-%s" (Runner.proto_name p))
          (Staged.stage (fun () ->
               let cfg = Config.make ~z:2 ~n:4 ~batch_size:10 ~client_inflight:4 () in
               let windows =
                 { Runner.warmup = Rdb_sim.Time.ms 100; measure = Rdb_sim.Time.ms 400 }
               in
               ignore (Runner.run (Scenario.make ~windows p cfg)))))
      Runner.all_protocols

let run_micro () =
  let open Bechamel in
  let open Toolkit in
  say "\n== Bechamel micro-benchmarks ==\n%!";
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"" ~fmt:"%s%s" [ test ]) in
      let results = Analyze.all ols Instance.monotonic_clock raw in
      Hashtbl.iter
        (fun name o ->
          match Analyze.OLS.estimates o with
          | Some (est :: _) ->
              if est > 1e6 then say "  %-28s %12.3f ms/run\n%!" name (est /. 1e6)
              else say "  %-28s %12.1f ns/run\n%!" name est
          | _ -> say "  %-28s (no estimate)\n%!" name)
        results)
    (micro_tests ())

(* -- experiment artifacts ------------------------------------------------------ *)

let windows_ref = ref Runner.default_windows

let figure_runs prefix rows =
  List.map
    (fun (r : Figures.row) ->
      (Printf.sprintf "%s%s@%d" prefix (Runner.proto_name r.Figures.proto) r.Figures.x,
       r.Figures.report))
    rows

let run_table1 () = timed "table1" (fun () -> Tables.Table1.print ())

let run_table2 () =
  timed "table2"
    ~runs:(List.map (fun (p, report) -> (Runner.proto_name p, report)))
    (fun () ->
      let rows = Tables.Table2.rows_of_reports (sweep (Tables.Table2.scenarios ~windows:!windows_ref ())) in
      Tables.Table2.print rows;
      rows)

let run_fig10 () =
  timed "fig10" ~runs:(figure_runs "") (fun () ->
      let rows = Figures.Fig10.rows_of_reports (sweep (Figures.Fig10.scenarios ~windows:!windows_ref ())) in
      Figures.Fig10.print rows;
      rows)

let run_fig11 () =
  timed "fig11" ~runs:(figure_runs "") (fun () ->
      let rows = Figures.Fig11.rows_of_reports (sweep (Figures.Fig11.scenarios ~windows:!windows_ref ())) in
      Figures.Fig11.print rows;
      rows)

let run_fig12 () =
  timed "fig12"
    ~runs:(fun (one, ff, pf) ->
      figure_runs "one-failure:" one
      @ figure_runs "f-failures:" ff
      @ figure_runs "primary-failure:" pf)
    (fun () ->
      (* One sweep over all three panels: the engine interleaves them
         across domains instead of three serial barriers. *)
      let windows = !windows_ref in
      let s_one = Figures.Fig12.scenarios_one_failure ~windows () in
      let s_ff = Figures.Fig12.scenarios_f_failures ~windows () in
      let s_pf = Figures.Fig12.scenarios_primary_failure ~windows () in
      let results = sweep (s_one @ s_ff @ s_pf) in
      let rec split k l =
        if k = 0 then ([], l)
        else
          match l with
          | [] -> invalid_arg "fig12 split"
          | x :: rest ->
              let a, b = split (k - 1) rest in
              (x :: a, b)
      in
      let r_one, rest = split (List.length s_one) results in
      let r_ff, r_pf = split (List.length s_ff) rest in
      let one = Figures.Fig12.rows_of_reports r_one in
      let ff = Figures.Fig12.rows_of_reports r_ff in
      let pf = Figures.Fig12.rows_of_reports r_pf in
      Figures.Fig12.print ~one ~ff ~pf;
      (one, ff, pf))

let run_ablations () =
  timed "ablations"
    ~runs:(fun (rows : Ablations.rows) ->
      List.concat_map
        (fun (r : Ablations.Fanout.row) ->
          [
            (Printf.sprintf "fanout:%s:healthy" r.Ablations.Fanout.label,
             r.Ablations.Fanout.healthy);
            (Printf.sprintf "fanout:%s:one-receiver-down" r.Ablations.Fanout.label,
             r.Ablations.Fanout.one_receiver_down);
          ])
        rows.Ablations.fanout
      @ List.map
          (fun (r : Ablations.Pipeline.row) ->
            (Printf.sprintf "pipeline:depth=%d" r.Ablations.Pipeline.depth,
             r.Ablations.Pipeline.report))
          rows.Ablations.pipeline
      @ List.map
          (fun (r : Ablations.Crypto_split.row) ->
            (Printf.sprintf "crypto:%s" r.Ablations.Crypto_split.label,
             r.Ablations.Crypto_split.report))
          rows.Ablations.crypto_split
      @ List.concat_map
          (fun (r : Ablations.Threshold_certs.row) ->
            [
              (Printf.sprintf "certs:n=%d:plain" r.Ablations.Threshold_certs.n,
               r.Ablations.Threshold_certs.plain);
              (Printf.sprintf "certs:n=%d:threshold" r.Ablations.Threshold_certs.n,
               r.Ablations.Threshold_certs.threshold);
            ])
          rows.Ablations.threshold_certs)
    (fun () ->
      let windows = !windows_ref in
      let rows = Ablations.rows_of_reports ~windows (sweep (Ablations.scenarios ~windows ())) in
      Ablations.print rows;
      rows)

let run_fig13 () =
  timed "fig13" ~runs:(figure_runs "") (fun () ->
      let rows = Figures.Fig13.rows_of_reports (sweep (Figures.Fig13.scenarios ~windows:!windows_ref ())) in
      Figures.Fig13.print rows;
      rows)

(* Pull "--flag PATH" out of an argument list; returns (value, rest). *)
let rec take_flag flag = function
  | [] -> (None, [])
  | f :: value :: rest when f = flag -> (Some value, rest)
  | a :: rest ->
      let v, rest = take_flag flag rest in
      (v, a :: rest)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let full = List.mem "--full" args in
  if full then windows_ref := Runner.full_windows;
  let args = List.filter (fun a -> a <> "--full") args in
  (match take_flag "-j" args with
  | Some j, _ -> (
      match int_of_string_opt j with
      | Some j when j >= 1 -> jobs_ref := j
      | _ ->
          say "-j expects a positive integer\n";
          exit 2)
  | None, _ -> ());
  let _, args = take_flag "-j" args in
  let reps_flag, args = take_flag "--reps" args in
  let reps =
    match reps_flag with
    | None -> 3
    | Some r -> (
        match int_of_string_opt r with
        | Some r when r >= 1 -> r
        | _ ->
            say "--reps expects a positive integer\n";
            exit 2)
  in
  let check_path, args = take_flag "--check" args in
  let baseline_path, args = take_flag "--write-baseline" args in
  (match (check_path, baseline_path) with
  | Some path, _ ->
      (* CI regression gate: compare the median of [reps] fresh runs of
         the baseline's scenarios against the committed values, exit
         non-zero on regression. *)
      run_check ~reps path;
      exit 0
  | None, Some path ->
      (* Traced runs, so the digests come along; tracing never perturbs
         the simulated schedule, so the numbers are the untraced ones. *)
      let runs = smoke_runs ~trace:true () in
      write_baseline path
        (List.map (fun ((s : Scenario.t), r) -> ({ s with Scenario.trace = false }, r)) runs);
      write_digests (digests_path path) (digest_lines runs);
      exit 0
  | None, None -> ());
  let targets =
    if args = [] || List.mem "all" args then
      [ "table1"; "table2"; "fig10"; "fig11"; "fig12"; "fig13"; "ablations"; "micro" ]
    else args
  in
  say "ResilientDB/GeoBFT evaluation harness (windows: warmup %.0fs + measure %.0fs, %d worker domain%s)\n%!"
    (Rdb_sim.Time.to_sec_f !windows_ref.Runner.warmup)
    (Rdb_sim.Time.to_sec_f !windows_ref.Runner.measure)
    !jobs_ref
    (if !jobs_ref = 1 then "" else "s")
  ;
  List.iter
    (function
      | "table1" -> run_table1 ()
      | "table2" -> ignore (run_table2 ())
      | "fig10" -> ignore (run_fig10 ())
      | "fig11" -> ignore (run_fig11 ())
      | "fig12" -> ignore (run_fig12 ())
      | "fig13" -> ignore (run_fig13 ())
      | "ablations" -> ignore (run_ablations ())
      | "micro" -> timed "micro" run_micro
      | "smoke" -> ignore (run_smoke ())
      | other -> say "unknown target %S (expected table1 table2 fig10..fig13 smoke micro)\n" other)
    targets;
  write_results ~windows:!windows_ref ()
