(* Golden digests for faulted runs.  Each run below exercises a part of
   the network's fault and exploration machinery — drop rules, link
   loss and duplication, crashed receivers, Byzantine interposition
   (silence, delayed and replayed emissions, deafness), and the
   checker's delivery and defer hooks — and pins both the trace digest
   and the SHA-256 of the report JSON.  The simulator is deterministic,
   so any change to the executed schedule, an RNG draw, a stats counter
   or a trace record moves at least one of them.

   A value may only be re-pinned for a deliberate behaviour change,
   with the reason recorded in CHANGES.md. *)

module Runner = Rdb_experiments.Runner
module Scenario = Rdb_experiments.Scenario
module Report = Rdb_fabric.Report
module Chaos = Rdb_chaos.Chaos
module Perturb = Rdb_check.Perturb
module Engine = Rdb_sim.Engine
module Time = Rdb_sim.Time

let scenario id =
  match Scenario.of_string id with
  | Some s -> s
  | None -> Alcotest.failf "unparseable scenario id %S" id

let sha256_hex s = Rdb_crypto.Hex.of_string (Rdb_crypto.Sha256.digest s)

let check_pinned ~digest ~report (r : Report.t) =
  let got =
    match r.Report.trace with Some tr -> tr.Rdb_trace.Trace.digest_hex | None -> "-"
  in
  Alcotest.(check string) "trace digest" digest got;
  Alcotest.(check string) "report JSON sha256" report (sha256_hex (Report.to_json_string r))

(* The chaos seeds were picked so the timeline installs every kind of
   link fault the protocol admits (geobft: a cluster partition; pbft: a
   crashed replica) and each rule actually fires on live traffic. *)
let chaos_run ~id ~kinds ~digest ~report () =
  let s = scenario id in
  let seed = match s.Scenario.fault with Scenario.Chaos seed -> seed | _ -> assert false in
  let timeline =
    Runner.chaos_timeline s.Scenario.proto ~windows:s.Scenario.windows ~seed s.Scenario.cfg
  in
  List.iter
    (fun (name, is_kind) ->
      Alcotest.(check bool)
        ("timeline installs " ^ name)
        true
        (List.exists (fun e -> is_kind e.Chaos.action) timeline))
    kinds;
  check_pinned ~digest ~report (Runner.run s)

let loss = ("link loss", function Chaos.Link_loss _ -> true | _ -> false)
let dup = ("link dup", function Chaos.Link_dup _ -> true | _ -> false)
let down = ("link down", function Chaos.Link_down _ -> true | _ -> false)

let test_geobft_chaos =
  chaos_run ~id:"geobft z2 n4 b50 i16 seed1 w500+2500 fault=chaos:17 trace"
    ~kinds:[ ("partition", (function Chaos.Partition _ -> true | _ -> false)); loss; dup; down ]
    ~digest:"4e680ab036087c31ca458e604b74b921ca8ac0da43abcdc4276867bc7cbacab9"
    ~report:"5c09da940fce44a79a5a02e3947c5f6bfefd0127dc670845ff01578688edb5ed"

let test_pbft_chaos =
  chaos_run ~id:"pbft z2 n4 b50 i16 seed1 w500+2500 fault=chaos:4 trace"
    ~kinds:[ ("crash", (function Chaos.Crash _ -> true | _ -> false)); loss; dup; down ]
    ~digest:"57d25c7c2e55de7e7fd35605589db2c5606ab9cc611557b3b3d40b3f4121d973"
    ~report:"e9fe494974e0e3dd899ee435ff62e0c172872f868378fa2836c6bb50c0c6f538"

(* One corrupted replica per cluster, so interposition runs on both
   engine shards: replica 0 replays every second vote 0.25 ms late and
   ignores incoming votes for a while; replica 5 delays its votes by
   20 ms and silences its client replies. *)
let test_attack () =
  check_pinned
    ~digest:"bfb6610605704bfe36e57ea5169808a19ade4b64fd74ef5bc80210c0c37591a7"
    ~report:"b0a190a8623781761ad8dc103f5d49a5f2702df2ddd912b8ee758b320d511020"
    (Runner.run
       (scenario
          ("geobft z2 n4 b50 i16 seed1 w500+1500 trace attack=0@600:1800!replay.vote.2"
          ^ "+0@800:1600!deaf.vote+5@700:1500!lag20.vote+5@700:1500!mute.client")))

(* A replayed schedule perturbation: delivery-hook delays and swaps plus
   engine defer-hook tie reorderings, installed the way lib/check does. *)
let test_check_perturbation () =
  let perturbations =
    [
      Perturb.Delay { nth = 40; extra = Time.ms 30 };
      Perturb.Defer { nth = 25 };
      Perturb.Swap { nth = 120 };
      Perturb.Defer { nth = 700 };
      Perturb.Delay { nth = 900; extra = Time.ms 120 };
      Perturb.Swap { nth = 1500 };
    ]
  in
  let hooks = Perturb.replay perturbations in
  let install (i : Runner.instrument) =
    Engine.set_defer_hook i.Runner.inst_engine (Some hooks.Perturb.defer);
    i.Runner.inst_set_delivery_hook (Some hooks.Perturb.deliver)
  in
  check_pinned
    ~digest:"705348c989ae502044ff729dec1669f34ca609186417ec1a785d6b33d0062e4d"
    ~report:"d9bc3f39d6e82a9efa621bfe4e6cb8d215e88020edb13c44489600ea81af6bfe"
    (Runner.run_instrumented ~install (scenario "pbft z2 n4 b20 i8 seed1 w500+2000 trace"))

let suite =
  [
    ("geobft chaos (partition, loss, dup, link down)", `Quick, test_geobft_chaos);
    ("pbft chaos (crash, loss, dup, link down)", `Quick, test_pbft_chaos);
    ("attack (replay, deaf, lag, mute)", `Quick, test_attack);
    ("check perturbation (delivery + defer hooks)", `Quick, test_check_perturbation);
  ]
