(* Storage-engine tests: backend digest equivalence (the determinism
   contract of Storage.Backend), crash recovery of the persistent block
   store at every possible torn-write boundary, snapshot compaction and
   re-anchoring, and mem-vs-disk deployment equivalence end to end. *)

module Config = Rdb_types.Config
module Txn = Rdb_types.Txn
module Batch = Rdb_types.Batch
module App = Rdb_types.App
module Time = Rdb_sim.Time
module Keychain = Rdb_crypto.Keychain
module Kv = Rdb_storage.Kv
module Ledger = Rdb_ledger.Ledger

let kc = Keychain.create ~seed:"storage-suite" ~n_nodes:1

(* Small record space so full-state snapshots stay tiny and the
   every-byte truncation sweep stays fast. *)
let n_records = 64

(* Three writes per batch, distinct keys and values per batch, so every
   block produces a fixed-size log frame and a distinct state. *)
let write_batch i =
  let txns =
    Array.init 3 (fun j ->
        Txn.make ~key:((i * 3) + j) ~value:(Int64.of_int ((i * 31) + j + 1)) ~client_id:0 ())
  in
  Batch.create ~keychain:kc ~id:i ~cluster:0 ~origin:0 ~txns ~created:0L

let read_batch i =
  let txns =
    [|
      Txn.make ~op:Txn.Read ~key:i ~value:0L ~client_id:0 ();
      Txn.make ~op:Txn.Scan ~key:(i + 1) ~value:7L ~client_id:0 ();
    |]
  in
  Batch.create ~keychain:kc ~id:(1000 + i) ~cluster:0 ~origin:0 ~txns ~created:0L

(* -- filesystem helpers -------------------------------------------------- *)

let fresh_dir () =
  let f = Filename.temp_file "rdb-storage-test" "" in
  Sys.remove f;
  Sys.mkdir f 0o700;
  f

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let read_file path = In_channel.with_open_bin path In_channel.input_all
let write_file path s = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* The snapshot file only exists once the store compacted or
   re-anchored; copy it when present. *)
let copy_snapshot ~src ~dst =
  let s = Filename.concat src "snapshot.bin" in
  if Sys.file_exists s then write_file (Filename.concat dst "snapshot.bin") (read_file s)

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* Reference trajectory: state digest after each block, computed on the
   in-memory backend.  [ref_digests.(h)] is the digest at height [h]. *)
let ref_digests ~blocks =
  let kv = Kv.memory ~n_records () in
  let out = Array.make (blocks + 1) (Kv.state_digest kv) in
  for i = 0 to blocks - 1 do
    ignore (Kv.apply kv (write_batch i));
    out.(i + 1) <- Kv.state_digest kv
  done;
  out

(* -- backend equivalence ------------------------------------------------- *)

let test_backend_digest_equivalence () =
  with_dir (fun dir ->
      let mem = Kv.memory ~n_records () in
      let disk = Kv.disk ~dir ~n_records () in
      Alcotest.(check string) "identical initial state" (Kv.state_digest mem)
        (Kv.state_digest disk);
      for i = 0 to 19 do
        let b = write_batch i in
        let rm = Kv.apply mem b and rd = Kv.apply disk b in
        Alcotest.(check string)
          (Printf.sprintf "result digest at block %d" i)
          rm.App.digest rd.App.digest;
        Alcotest.(check string)
          (Printf.sprintf "state digest at height %d" (i + 1))
          (Kv.state_digest mem) (Kv.state_digest disk)
      done;
      Alcotest.(check int) "same height" (Kv.height mem) (Kv.height disk);
      let sm = Kv.snapshot mem and sd = Kv.snapshot disk in
      Alcotest.(check int) "snapshot heights agree" sm.App.height sd.App.height;
      Alcotest.(check string) "snapshot states byte-identical" sm.App.state sd.App.state;
      Kv.close disk)

let test_reads_leave_state_untouched () =
  with_dir (fun dir ->
      let mem = Kv.memory ~n_records () in
      let disk = Kv.disk ~dir ~n_records () in
      List.iter (fun kv -> ignore (Kv.apply kv (write_batch 0))) [ mem; disk ];
      let before = Kv.state_digest mem in
      let b = read_batch 0 in
      Alcotest.(check bool) "batch is read-only" true (Batch.read_only b);
      let rm = Kv.read mem b and rd = Kv.read disk b in
      Alcotest.(check string) "read results agree across backends" rm.App.digest rd.App.digest;
      Alcotest.(check int) "read counted" 1 rm.App.reads;
      Alcotest.(check int) "scan counted" 1 rm.App.scans;
      Alcotest.(check int) "scan rows = 1 + (value land 63)" 8 rm.App.scanned_rows;
      Alcotest.(check string) "state unchanged by reads" before (Kv.state_digest mem);
      Alcotest.(check string) "disk state unchanged too" (Kv.state_digest disk) before;
      Alcotest.(check int) "height unchanged" 1 (Kv.height mem);
      Kv.close disk)

(* -- crash recovery ------------------------------------------------------ *)

(* Run [blocks] writes against a disk store, then simulate a crash at
   every possible torn-write point: for every prefix length of
   blocks.log, reconstruct a crashed directory and reopen it.  The
   recovered store must land exactly on the reference digest for the
   number of complete frames it could replay. *)
let crash_sweep ~snapshot_every ~blocks ~check_height =
  let refs = ref_digests ~blocks in
  with_dir (fun dir ->
      let kv = Kv.disk ~snapshot_every ~dir ~n_records () in
      for i = 0 to blocks - 1 do
        ignore (Kv.apply kv (write_batch i))
      done;
      (* Simulate the crash: abandon [kv] without closing it; log_block
         flushes each frame, so the on-disk bytes are what a crash at
         this point would leave behind. *)
      let log = read_file (Filename.concat dir "blocks.log") in
      Alcotest.(check bool) "log is non-empty before the crash" true (String.length log > 0);
      for cut = 0 to String.length log do
        with_dir (fun dir2 ->
            copy_snapshot ~src:dir ~dst:dir2;
            write_file (Filename.concat dir2 "blocks.log") (String.sub log 0 cut);
            let r = Kv.disk ~snapshot_every ~dir:dir2 ~n_records () in
            let h = Kv.height r in
            check_height ~cut h;
            Alcotest.(check string)
              (Printf.sprintf "digest after crash at log byte %d (height %d)" cut h)
              refs.(h) (Kv.state_digest r);
            Kv.close r)
      done;
      Kv.close kv)

(* Frame size for our 3-write batches:
   [height][count] + 3 x ([key][value]) + [checksum] = 9 words. *)
let frame_bytes = 72

let test_crash_at_every_log_byte () =
  (* snapshot_every larger than the run: the log covers everything from
     genesis, so a cut at byte [c] must recover exactly [c / frame]
     blocks. *)
  crash_sweep ~snapshot_every:1024 ~blocks:6 ~check_height:(fun ~cut h ->
      Alcotest.(check int)
        (Printf.sprintf "complete frames below byte %d" cut)
        (cut / frame_bytes) h)

let test_crash_after_compaction () =
  (* snapshot_every=4 over 10 blocks: the store re-anchored at height 8,
     so any crash recovers to at least 8 and the log only adds the two
     post-snapshot frames. *)
  crash_sweep ~snapshot_every:4 ~blocks:10 ~check_height:(fun ~cut h ->
      Alcotest.(check int)
        (Printf.sprintf "snapshot base + complete frames at byte %d" cut)
        (8 + (cut / frame_bytes)) h)

let test_corrupt_frame_stops_replay () =
  let blocks = 6 in
  let refs = ref_digests ~blocks in
  with_dir (fun dir ->
      let kv = Kv.disk ~snapshot_every:1024 ~dir ~n_records () in
      for i = 0 to blocks - 1 do
        ignore (Kv.apply kv (write_batch i))
      done;
      let log = read_file (Filename.concat dir "blocks.log") in
      (* Flip one byte inside the fourth frame's payload: replay must
         stop after the three intact frames, discarding the rest. *)
      let corrupt = Bytes.of_string log in
      let off = (3 * frame_bytes) + 20 in
      Bytes.set corrupt off (Char.chr (Char.code (Bytes.get corrupt off) lxor 0xFF));
      with_dir (fun dir2 ->
          copy_snapshot ~src:dir ~dst:dir2;
          write_file (Filename.concat dir2 "blocks.log") (Bytes.to_string corrupt);
          let r = Kv.disk ~snapshot_every:1024 ~dir:dir2 ~n_records () in
          Alcotest.(check int) "replay stops at the corrupt frame" 3 (Kv.height r);
          Alcotest.(check string) "state is the intact prefix" refs.(3) (Kv.state_digest r);
          Kv.close r);
      Kv.close kv)

let test_lost_snapshot_falls_back_to_genesis () =
  (* After compaction the log starts above genesis; if the snapshot is
     gone those frames are an unappliable gap, so recovery restarts
     from the identical initial table rather than applying them out of
     order. *)
  let refs = ref_digests ~blocks:10 in
  with_dir (fun dir ->
      let kv = Kv.disk ~snapshot_every:4 ~dir ~n_records () in
      for i = 0 to 9 do
        ignore (Kv.apply kv (write_batch i))
      done;
      with_dir (fun dir2 ->
          write_file (Filename.concat dir2 "blocks.log")
            (read_file (Filename.concat dir "blocks.log"));
          let r = Kv.disk ~snapshot_every:4 ~dir:dir2 ~n_records () in
          Alcotest.(check int) "gapped log cannot apply" 0 (Kv.height r);
          Alcotest.(check string) "state is genesis" refs.(0) (Kv.state_digest r);
          Kv.close r);
      Kv.close kv)

let test_recovery_idempotent_and_reanchored () =
  let blocks = 7 in
  let refs = ref_digests ~blocks in
  with_dir (fun dir ->
      let kv = Kv.disk ~snapshot_every:1024 ~dir ~n_records () in
      for i = 0 to blocks - 1 do
        ignore (Kv.apply kv (write_batch i))
      done;
      (* Crash with a torn tail: half of an eighth frame. *)
      let log = read_file (Filename.concat dir "blocks.log") in
      write_file (Filename.concat dir "blocks.log") (log ^ String.make 20 '\x55');
      let r1 = Kv.disk ~snapshot_every:1024 ~dir ~n_records () in
      Alcotest.(check int) "recovers the full height" blocks (Kv.height r1);
      Alcotest.(check string) "recovers the pre-crash digest" refs.(blocks)
        (Kv.state_digest r1);
      Kv.close r1;
      (* Recovery re-anchored: the snapshot holds the full height and
         the log restarted empty, so the torn tail is gone for good. *)
      Alcotest.(check int) "log truncated by the re-anchor" 0
        (String.length (read_file (Filename.concat dir "blocks.log")));
      let r2 = Kv.disk ~snapshot_every:1024 ~dir ~n_records () in
      Alcotest.(check int) "second recovery is identical" blocks (Kv.height r2);
      Alcotest.(check string) "digest stable across reopens" refs.(blocks)
        (Kv.state_digest r2);
      Kv.close r2)

let test_installed_snapshot_persists () =
  (* Checkpoint state transfer: a snapshot installed via [restore] on a
     disk-backed store must survive a restart (note_restore re-anchors
     the on-disk state). *)
  with_dir (fun src_dir ->
      with_dir (fun dst_dir ->
          let src = Kv.disk ~dir:src_dir ~n_records () in
          for i = 0 to 4 do
            ignore (Kv.apply src (write_batch i))
          done;
          let snap = Kv.snapshot src in
          let dst = Kv.disk ~dir:dst_dir ~n_records () in
          Kv.restore dst snap;
          Alcotest.(check int) "snapshot installed" 5 (Kv.height dst);
          Kv.close dst;
          let r = Kv.disk ~dir:dst_dir ~n_records () in
          Alcotest.(check int) "installed height survives restart" 5 (Kv.height r);
          Alcotest.(check string) "installed state survives restart" (Kv.state_digest src)
            (Kv.state_digest r);
          (* Forward-ratchet: replaying the same snapshot cannot rewind
             or double-apply. *)
          Kv.restore r snap;
          Alcotest.(check int) "stale restore ignored" 5 (Kv.height r);
          Kv.close r;
          Kv.close src))

(* -- end-to-end deployment equivalence ----------------------------------- *)

module Dep = Rdb_fabric.Deployment.Make (Rdb_pbft.Replica)
module Report = Rdb_fabric.Report

let test_mem_vs_disk_deployment () =
  let cfg storage =
    let base =
      {
        Config.default with
        Config.local_timeout_ms = 500.0;
        remote_timeout_ms = 1_000.0;
        client_timeout_ms = 1_500.0;
        checkpoint_interval = 60;
      }
    in
    Config.make ~base ~z:1 ~n:4 ~batch_size:5 ~client_inflight:4 ~seed:1 ~storage ()
  in
  with_dir (fun store_dir ->
      let dm = Dep.create ~n_records:1000 (cfg Config.Memory) in
      let dd = Dep.create ~n_records:1000 ~store_dir (cfg Config.Disk) in
      let rm = Dep.run ~warmup:(Time.sec 1) ~measure:(Time.sec 2) dm in
      let rd = Dep.run ~warmup:(Time.sec 1) ~measure:(Time.sec 2) dd in
      (* The backend is invisible to consensus and to the metrics: the
         disk deployment must reproduce the memory run exactly. *)
      Alcotest.(check int) "same completed txns" rm.Report.completed_txns
        rd.Report.completed_txns;
      Alcotest.(check int) "same decisions" rm.Report.decisions rd.Report.decisions;
      Alcotest.(check string) "reports label their backend" "disk" rd.Report.storage;
      Alcotest.(check string) "memory labelled too" "mem" rm.Report.storage;
      for i = 0 to 3 do
        Alcotest.(check string)
          (Printf.sprintf "replica %d ledger tip" i)
          (Ledger.tip_hash (Dep.ledger dm ~replica:i))
          (Ledger.tip_hash (Dep.ledger dd ~replica:i));
        Alcotest.(check string)
          (Printf.sprintf "replica %d state digest" i)
          ((Dep.app dm ~replica:i).App.state_digest ())
          ((Dep.app dd ~replica:i).App.state_digest ())
      done;
      Dep.close dm;
      Dep.close dd;
      (* The disk deployment left recoverable per-replica stores behind:
         reopening replica 0's store reproduces its final state. *)
      let final = (Dep.app dm ~replica:0).App.state_digest () in
      let r =
        Kv.disk ~dir:(Filename.concat store_dir "r0") ~n_records:1000 ()
      in
      Alcotest.(check string) "replica 0 store recovers final state" final
        (Kv.state_digest r);
      Kv.close r)

(* -- the cross-replica execution memo ------------------------------------ *)

module Backend = Rdb_storage.Backend

(* Random write/read/scan batches over a tiny key space, so one batch
   often writes (and reads back) the same key several times. *)
let random_batch rng i =
  let txns =
    Array.init 12 (fun _ ->
        let op =
          match Random.State.int rng 4 with 0 -> Txn.Read | 1 -> Txn.Scan | _ -> Txn.Write
        in
        Txn.make ~op ~key:(Random.State.int rng 8) ~value:(Random.State.int64 rng 1_000_000L)
          ~client_id:0 ())
  in
  Batch.create ~keychain:kc ~id:(5000 + i) ~cluster:0 ~origin:0 ~txns ~created:0L

let read_only_batch rng i =
  let txns =
    Array.init 4 (fun j ->
        Txn.make
          ~op:(if j mod 2 = 0 then Txn.Read else Txn.Scan)
          ~key:(Random.State.int rng n_records) ~value:(Random.State.int64 rng 64L) ~client_id:0 ())
  in
  Batch.create ~keychain:kc ~id:(9000 + i) ~cluster:0 ~origin:0 ~txns ~created:0L

let check_result msg (a : App.result) (b : App.result) =
  Alcotest.(check string) (msg ^ ": result digest") a.App.digest b.App.digest;
  Alcotest.(check (list int)) (msg ^ ": op counts")
    [ a.App.reads; a.App.writes; a.App.scans; a.App.scanned_rows ]
    [ b.App.reads; b.App.writes; b.App.scans; b.App.scanned_rows ]

(* A Kv and its independent twin (own memo) hold the same state. *)
let check_twin msg kv twin =
  Alcotest.(check int) (msg ^ ": height") (Kv.height twin) (Kv.height kv);
  Alcotest.(check bool) (msg ^ ": records") true (Kv.records kv = Kv.records twin);
  Alcotest.(check string) (msg ^ ": state digest") (Kv.state_digest twin) (Kv.state_digest kv)

let test_memo_matches_independent () =
  let rng = Random.State.make [| 12 |] in
  let master = Backend.init_records ~n_records in
  let memo = Kv.create_memo () in
  let shared = Array.init 3 (fun _ -> Kv.of_master ~memo master) in
  let twins = Array.init 3 (fun _ -> Kv.of_master master) in
  for i = 0 to 39 do
    let b = if i mod 4 = 3 then read_only_batch rng i else random_batch rng i in
    let step kv = if i mod 4 = 3 then Kv.read kv b else Kv.apply kv b in
    Array.iteri
      (fun r kv ->
        check_result (Printf.sprintf "batch %d replica %d" i r) (step twins.(r)) (step kv))
      shared
  done;
  Array.iteri (fun r kv -> check_twin (Printf.sprintf "replica %d" r) kv twins.(r)) shared;
  (* One execution per batch: the first replica misses, the others hit. *)
  let counts f = Array.to_list (Array.map f shared) in
  Alcotest.(check (list int)) "misses" [ 40; 0; 0 ] (counts Kv.memo_misses);
  Alcotest.(check (list int)) "hits" [ 0; 40; 40 ] (counts Kv.memo_hits)

let test_memo_divergence () =
  let rng = Random.State.make [| 7 |] in
  let master = Backend.init_records ~n_records in
  let memo = Kv.create_memo () in
  let a = Kv.of_master ~memo master and b = Kv.of_master ~memo master in
  let a' = Kv.of_master master and b' = Kv.of_master master in
  let common = random_batch rng 0 in
  ignore (Kv.apply a common);
  ignore (Kv.apply b common);
  ignore (Kv.apply a' common);
  ignore (Kv.apply b' common);
  (* Diverge at height 1, then apply one more common batch. *)
  let x = random_batch rng 1 and y = random_batch rng 2 in
  check_result "a diverges" (Kv.apply a' x) (Kv.apply a x);
  check_result "b diverges" (Kv.apply b' y) (Kv.apply b y);
  let c = random_batch rng 3 in
  check_result "a after divergence" (Kv.apply a' c) (Kv.apply a c);
  check_result "b after divergence" (Kv.apply b' c) (Kv.apply b c);
  check_twin "a" a a';
  check_twin "b" b b';
  Alcotest.(check int) "b hit only the common prefix" 1 (Kv.memo_hits b)

let test_memo_batch_copy_misses () =
  let rng = Random.State.make [| 3 |] in
  let master = Backend.init_records ~n_records in
  let memo = Kv.create_memo () in
  let a = Kv.of_master ~memo master and b = Kv.of_master ~memo master in
  let x = random_batch rng 0 in
  let copy = { x with Batch.txns = Array.copy x.Batch.txns } in
  Alcotest.(check string) "equal digest" x.Batch.digest copy.Batch.digest;
  let ra = Kv.apply a x in
  check_result "copy computes the same result" ra (Kv.apply b copy);
  Alcotest.(check int) "the copy missed" 1 (Kv.memo_misses b);
  Alcotest.(check int) "and did not hit" 0 (Kv.memo_hits b)

let test_memo_restore_leaves_lineage () =
  (* Two Kvs on the shared root each install a different snapshot at
     the same height: were restore to keep the root lineage, the second
     would replay the first's next transition onto another state. *)
  let rng = Random.State.make [| 5 |] in
  let master = Backend.init_records ~n_records in
  let snap_after batch =
    let src = Kv.of_master master in
    ignore (Kv.apply src batch);
    (Kv.snapshot src, src)
  in
  let snap_x, twin_a = snap_after (random_batch rng 0) in
  let snap_y, twin_b = snap_after (random_batch rng 1) in
  let memo = Kv.create_memo () in
  let a = Kv.of_master ~memo master and b = Kv.of_master ~memo master in
  Kv.restore a snap_x;
  Kv.restore b snap_y;
  let w = random_batch rng 2 in
  check_result "a after restore" (Kv.apply twin_a w) (Kv.apply a w);
  check_result "b after restore" (Kv.apply twin_b w) (Kv.apply b w);
  check_twin "a" a twin_a;
  check_twin "b" b twin_b;
  Alcotest.(check int) "b missed" 1 (Kv.memo_misses b)

let test_memo_disk_hits_log_blocks () =
  let rng = Random.State.make [| 9 |] in
  let master = Backend.init_records ~n_records in
  with_dir (fun dir ->
      let memo = Kv.create_memo () in
      let open_store r =
        Kv.disk ~memo ~snapshot_every:1024 ~init:master ~dir:(Filename.concat dir r) ~n_records ()
      in
      let a = open_store "a" and b = open_store "b" in
      let batches = Array.init 11 (random_batch rng) in
      for i = 0 to 9 do
        let ra = Kv.apply a batches.(i) in
        check_result (Printf.sprintf "block %d" i) ra (Kv.apply b batches.(i))
      done;
      Alcotest.(check int) "b replayed every block" 10 (Kv.memo_hits b);
      (* Crash b (abandon it unclosed) and recover from its log alone. *)
      let r = open_store "b" in
      Alcotest.(check int) "recovered height" 10 (Kv.height r);
      Alcotest.(check string) "recovered state" (Kv.state_digest a) (Kv.state_digest r);
      let ra = Kv.apply a batches.(10) in
      check_result "recovered store" ra (Kv.apply r batches.(10));
      (* A store reopened over earlier state never joins the shared
         root, even at height 0: here its snapshot holds another image,
         so replaying the root's height-0 transition would be wrong. *)
      let other = Backend.copy_records master in
      Bigarray.Array1.fill other 7L;
      let other_dir = Filename.concat dir "other" in
      Kv.close (Kv.disk ~init:other ~dir:other_dir ~n_records ());
      Kv.close (Kv.disk ~init:other ~dir:other_dir ~n_records ());
      let reopened = Kv.disk ~memo ~init:master ~dir:other_dir ~n_records () in
      let twin = Kv.of_master other in
      Alcotest.(check int) "reopened at genesis" 0 (Kv.height reopened);
      check_result "reopened store" (Kv.apply twin batches.(0)) (Kv.apply reopened batches.(0));
      check_twin "reopened store" reopened twin;
      List.iter Kv.close [ a; b; r; reopened ])

module GeoDep = Rdb_fabric.Deployment.Make (Rdb_geobft.Replica)

let test_memo_one_execution_per_height () =
  let cfg = Itest.small_cfg ~z:2 ~n:4 () in
  let d = GeoDep.create ~n_records:1000 cfg in
  ignore (GeoDep.run ~warmup:(Time.sec 1) ~measure:(Time.sec 2) d);
  let kvs = List.init (Config.n_replicas cfg) (fun replica -> GeoDep.kv d ~replica) in
  let sum f = List.fold_left (fun acc kv -> acc + f kv) 0 kvs in
  let heights = List.fold_left (fun acc kv -> max acc (Kv.height kv)) 0 kvs in
  Alcotest.(check bool) "made progress" true (heights > 10);
  Alcotest.(check int) "one miss per distinct height" heights (sum Kv.memo_misses);
  Alcotest.(check int) "every other apply hit" (sum Kv.height - heights) (sum Kv.memo_hits);
  GeoDep.close d

(* [Deployment.close] deletes the temp store root it created itself. *)
let test_disk_deployment_removes_temp_store () =
  let tmp = Filename.get_temp_dir_name () in
  let stores () =
    Sys.readdir tmp |> Array.to_list
    |> List.filter (fun e -> String.starts_with ~prefix:"rdb-store-" e)
    |> List.sort compare
  in
  let before = stores () in
  let cfg = { (Itest.small_cfg ~z:1 ~n:4 ()) with Config.storage = Config.Disk } in
  let d = Dep.create ~n_records:1000 cfg in
  ignore (Dep.run ~warmup:(Time.sec 1) ~measure:(Time.sec 1) d);
  Alcotest.(check bool) "a temp store exists while running" true
    (List.exists (fun e -> not (List.mem e before)) (stores ()));
  Dep.close d;
  Alcotest.(check (list string)) "no new rdb-store-* left behind" []
    (List.filter (fun e -> not (List.mem e before)) (stores ()))

let suite =
  [
    ("backend digest equivalence", `Quick, test_backend_digest_equivalence);
    ("reads leave state untouched", `Quick, test_reads_leave_state_untouched);
    ("crash at every log byte", `Quick, test_crash_at_every_log_byte);
    ("crash after compaction", `Quick, test_crash_after_compaction);
    ("corrupt frame stops replay", `Quick, test_corrupt_frame_stops_replay);
    ("lost snapshot falls back to genesis", `Quick, test_lost_snapshot_falls_back_to_genesis);
    ("recovery idempotent, re-anchored", `Quick, test_recovery_idempotent_and_reanchored);
    ("installed snapshot persists", `Quick, test_installed_snapshot_persists);
    ("mem vs disk deployments identical", `Quick, test_mem_vs_disk_deployment);
    ("memo matches independent Kvs", `Quick, test_memo_matches_independent);
    ("memo divergence falls back", `Quick, test_memo_divergence);
    ("memo batch copy misses", `Quick, test_memo_batch_copy_misses);
    ("memo restore leaves lineage", `Quick, test_memo_restore_leaves_lineage);
    ("memo disk hits log blocks", `Quick, test_memo_disk_hits_log_blocks);
    ("memo one execution per height", `Quick, test_memo_one_execution_per_height);
    ("disk deployment removes temp store", `Quick, test_disk_deployment_removes_temp_store);
  ]
