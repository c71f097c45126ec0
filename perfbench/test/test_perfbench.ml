(* The benchmark's own tests: the instrumentation is transparent (an
   instrumented run reports exactly what a plain run reports), the
   order statistics match Python's, and the layer sampler knows every
   directory under lib/. *)

module H = Perfbench.Harness
module Stats = Perfbench.Stats
module Sampler = Perfbench.Sampler
module Runner = Rdb_experiments.Runner
module Scenario = Rdb_experiments.Scenario
module Report = Rdb_fabric.Report

let check_float msg expected got = Alcotest.(check (float 1e-12)) msg expected got

(* -- transparency ------------------------------------------------------------ *)

let small name shape ?timeline_seed () = { H.name; shape; timeline_seed }

let report_json r =
  match r.H.report with
  | Some rp -> Report.to_json_string rp
  | None -> Alcotest.fail ("run raised: " ^ String.concat "; " r.H.failures)

(* A traced [Timed] repetition and an untraced [Observe] repetition
   against [Runner.run] on the same scenario: byte-identical reports,
   trace summary and digest included. *)
let transparent shape ?timeline_seed ~runner_id ~drains () =
  let w = small "t" shape ?timeline_seed () in
  let timeline = H.chaos_timeline w in
  let plain = Runner.run (Option.get (Scenario.of_string (runner_id ^ " trace"))) in
  let timed = H.run_rep ?timeline ~drain:false ~traced:true w ~seed:1 in
  Alcotest.(check (list string)) "timed run passes its checks" [] timed.H.failures;
  Alcotest.(check string) "Timed(P) report = plain report" (Report.to_json_string plain)
    (report_json timed);
  let untraced = Runner.run (Option.get (Scenario.of_string runner_id)) in
  let observed = H.run_rep ?timeline ~drain:true ~traced:false w ~seed:1 in
  Alcotest.(check (list string)) "observed run passes its checks" [] observed.H.failures;
  Alcotest.(check string) "Observe(P) report = plain report" (Report.to_json_string untraced)
    (report_json observed);
  (* Under the seed-1 chaos timeline two client groups lose their
     whole window and never complete it (a known liveness defect the
     benchmark reports as failed batches); everywhere else the drain
     completes every batch. *)
  if drains then Alcotest.(check int) "no batch left after the drain" 0 observed.H.unfinished

let test_transparent_geobft () =
  transparent "geobft z2 n4 b50 i16 w300+700" ~runner_id:"geobft z2 n4 b50 i16 seed1 w300+700" ~drains:true ()

let test_transparent_pbft () =
  transparent "pbft z1 n4 b50 i16 w300+700 reads=0.5"
    ~runner_id:"pbft z1 n4 b50 i16 seed1 w300+700 reads=0.5" ~drains:true ()

let test_transparent_chaos () =
  transparent "geobft z2 n4 b50 i16 w1000+2000" ~timeline_seed:1
    ~runner_id:"geobft z2 n4 b50 i16 seed1 w1000+2000 fault=chaos:1" ~drains:false ()

let test_fingerprint_repeats () =
  let w = small "t" "geobft z2 n4 b50 i16 w300+700 storage=disk" () in
  let dir = "perfbench-test-store" in
  let a = H.run_rep ~store_dir:dir ~drain:true ~traced:false w ~seed:2 in
  Alcotest.(check bool) "store directory removed" false (Sys.file_exists dir);
  Alcotest.(check bool) "block log measured" true (a.H.log_mb > 0.);
  let b = H.run_rep ~store_dir:dir ~drain:false ~traced:false w ~seed:2 in
  Alcotest.(check bool) "repetitions agree exactly" true (H.fingerprint a = H.fingerprint b);
  let short seed =
    H.run_rep ~store_dir:dir ~measure:(Rdb_sim.Time.ms 200) ~drain:false ~traced:false w ~seed
  in
  Alcotest.(check bool) "a shortened repeat reproduces the start" true
    (H.same_prefix ~full:a ~short:(short 2));
  Alcotest.(check bool) "another seed does not" false (H.same_prefix ~full:a ~short:(short 3))

(* -- statistics ---------------------------------------------------------------- *)

let test_quartiles () =
  (* Values from Python: statistics.quantiles(xs, n=4) / median(xs). *)
  let q1, q2, q3 = Stats.quartiles [ 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10. ] in
  check_float "q1" 2.75 q1;
  check_float "q2" 5.5 q2;
  check_float "q3" 8.25 q3;
  let q1, q2, q3 = Stats.quartiles [ 3.; 1.; 2. ] in
  check_float "q1 small" 1. q1;
  check_float "q2 small" 2. q2;
  check_float "q3 small" 3. q3;
  let xs = [ 0.5; 2.25; 9.0; 4.0; 7.75; 1.0 ] in
  let q1, q2, q3 = Stats.quartiles xs in
  check_float "q1 even" 0.875 q1;
  check_float "q2 even" 3.125 q2;
  check_float "q3 even" 8.0625 q3;
  check_float "median even" 3.125 (Stats.median xs);
  check_float "median odd" 2. (Stats.median [ 3.; 1.; 2. ])

let test_percentile () =
  let a = Array.init 200 (fun i -> float_of_int (i + 1)) in
  check_float "p50" 101. (Stats.percentile a 0.50);
  check_float "p99" 199. (Stats.percentile a 0.99);
  check_float "empty" 0. (Stats.percentile [||] 0.5)

(* -- sampler ------------------------------------------------------------------- *)

let test_layer_table_covers_lib () =
  let lib = "../../lib" in
  let dirs =
    Sys.readdir lib |> Array.to_list
    |> List.filter (fun d -> Sys.is_directory (Filename.concat lib d))
    |> List.sort compare
  in
  Alcotest.(check (list string)) "one entry per lib/ directory" dirs
    (List.sort compare (List.map fst Sampler.dir_layers))

let test_attribution () =
  Hashtbl.reset Sampler.counts;
  let f = Sampler.frame_of_file in
  Sampler.attribute [ Sampler.Elsewhere; f "lib/crypto/sha256.ml"; f "lib/storage/kv.ml" ];
  Sampler.attribute [ f "lib/prng/splitmix64.ml"; f "lib/storage/blockstore.ml" ];
  Sampler.attribute [ f "lib/crypto/schnorr.ml"; f "lib/types/batch.ml"; f "lib/pbft/engine.ml" ];
  Sampler.attribute [ f "stdlib/hashtbl.ml"; f "lib/sim/heap.ml" ];
  Sampler.attribute [ f "lib/sim/network.ml" ];
  Sampler.attribute [ f "perfbench/main.ml" ];
  Sampler.attribute [ f "lib/crypto/sha256.ml"; f "lib/trace/trace.ml" ];
  let n l = Option.value ~default:0 (Hashtbl.find_opt Sampler.counts l) in
  Alcotest.(check int) "crypto" 3 (n "crypto");
  Alcotest.(check int) "crypto called by the tracer" 1 (n "crypto.by_trace");
  Alcotest.(check int) "crypto called by storage" 1 (n "crypto.by_storage");
  Alcotest.(check int) "crypto called by a protocol, through types" 1 (n "crypto.by_protocol");
  Alcotest.(check int) "prng charged to its caller" 1 (n "storage");
  Alcotest.(check int) "stdlib charged to the engine" 1 (n "sim.engine");
  Alcotest.(check int) "network" 1 (n "sim.network");
  Alcotest.(check int) "no lib/ frame" 1 (n "other")

let () =
  Alcotest.run "perfbench"
    [
      ( "transparency",
        [
          Alcotest.test_case "geobft" `Quick test_transparent_geobft;
          Alcotest.test_case "pbft read mix" `Quick test_transparent_pbft;
          Alcotest.test_case "geobft chaos" `Quick test_transparent_chaos;
          Alcotest.test_case "repetitions and disk hygiene" `Quick test_fingerprint_repeats;
        ] );
      ( "statistics",
        [
          Alcotest.test_case "quartiles and median" `Quick test_quartiles;
          Alcotest.test_case "nearest-rank percentile" `Quick test_percentile;
        ] );
      ( "sampler",
        [
          Alcotest.test_case "layer table covers lib/" `Quick test_layer_table_covers_lib;
          Alcotest.test_case "attribution" `Quick test_attribution;
        ] );
    ]
