(* The deterministic KV state machine over a pluggable backend.

   This is the App implementation the fabric installs under every
   replica: it executes ordered batches against the backend's record
   mirror, produces per-batch execution results (digest + op counts)
   for client replies, serves read-only batches without advancing the
   height, and snapshots/restores full state for checkpoint-based
   state transfer.

   Determinism: execution touches only the records array, the batch
   contents, and fixed mixing constants — no time, no randomness, no
   host state — so every non-faulty replica applying the same batch
   sequence produces byte-identical results, state digests, and
   snapshots, regardless of backend.  That is what lets the replicas
   of one deployment share an execution memo (below; DESIGN.md §18):
   each (state, batch) transition executes once and the other replicas
   replay its write set and result. *)

module Txn = Rdb_types.Txn
module Batch = Rdb_types.Batch
module App = Rdb_types.App
module Sha256 = Rdb_crypto.Sha256
module Splitmix64 = Rdb_prng.Splitmix64

(* -- the cross-replica execution memo ----------------------------------

   Every replica of a deployment starts from the same records and
   applies the same ordered batches, so a fault-free deployment repeats
   each state transition z·n times.  The memo lets one Kv execute a
   batch and the others replay its recorded outcome.

   Lineage invariant: two Kvs with equal [lineage] hold byte-identical
   records (hence also equal heights).  Kvs built from a memo's shared
   master start on the memo's [root] lineage; every other state change
   that is not a memo hit — a miss, a [restore], a disk store that
   recovered earlier state — moves the Kv to a fresh lineage, drawn
   from one process-wide counter so no two ever collide.

   An apply entry records the transition of the Kv at [height] on
   lineage [pre] under the batch with [txns] (physical identity) and
   [digest]: its write set ([keys] and the post-values in [vals], 8
   bytes LE each, in application order), its result, and the lineage
   [post] the state lands on.  Execution reads only the records, the
   batch's [txns] and its [digest], so any Kv matching the key reaches
   the same records and result by writing the write set.  Read entries
   use the same key with [post = pre] and an empty write set.

   Entries are immutable and published with a single slot write, so a
   Kv racing another shard's publication sees either entry, each
   consistent.  A miss for any reason — another lineage, a copy of the
   batch, a replica lagging past the ring, an evicted slot — executes
   the batch, so no fallback needs its own code. *)

type entry = {
  height : int;
  pre : int;
  txns : Txn.t array;
  digest : string;
  post : int;
  keys : int array;
  vals : Bytes.t;
  result : App.result;
}

let slots = 1024 (* a power of two; apply slot = height land (slots - 1) *)

type memo = { root : int; applies : entry array; reads : entry array }

let lineages = Atomic.make 0
let fresh_lineage () = Atomic.fetch_and_add lineages 1

let vacant =
  {
    height = -1;
    pre = -1;
    txns = [||];
    digest = "";
    post = -1;
    keys = [||];
    vals = Bytes.empty;
    result = { App.digest = ""; reads = 0; writes = 0; scans = 0; scanned_rows = 0 };
  }

let create_memo () =
  {
    root = fresh_lineage ();
    applies = Array.make slots vacant;
    reads = Array.make slots vacant;
  }

(* Drop every recorded entry (and the batches they reference). *)
let clear_memo m =
  Array.fill m.applies 0 slots vacant;
  Array.fill m.reads 0 slots vacant

(* Read entries are keyed by batch, not height. *)
let read_slot (b : Batch.t) = Hashtbl.hash b.Batch.digest land (slots - 1)

type t = {
  records : Backend.records;
  n : int;
  log_block : height:int -> keys:int array -> values:Bytes.t -> count:int -> unit;
  note_restore : height:int -> unit;
  backend_close : unit -> unit;
  memo : memo;
  mutable lineage : int;
  mutable height : int; (* batches applied; equals the ledger height it mirrors *)
  mutable reads : int; (* cumulative op counters (apply + read path) *)
  mutable writes : int;
  mutable scans : int;
  mutable scanned_rows : int;
  mutable memo_hits : int; (* applies and reads served from the memo *)
  mutable memo_misses : int;
  scratch : Buffer.t; (* per-batch result serialization, reused *)
  mutable wkeys : int array; (* write-set collection, reused *)
  mutable wvals : Bytes.t;
}

let make ?(memo = create_memo ()) ~root (Backend.Packed ((module B), b)) =
  let records = B.records b in
  {
    records;
    n = Bigarray.Array1.dim records;
    log_block = (fun ~height ~keys ~values ~count -> B.log_block b ~height ~keys ~values ~count);
    note_restore = (fun ~height -> B.note_restore b ~height);
    backend_close = (fun () -> B.close b);
    memo;
    lineage = (if root then memo.root else fresh_lineage ());
    height = B.height b;
    reads = 0;
    writes = 0;
    scans = 0;
    scanned_rows = 0;
    memo_hits = 0;
    memo_misses = 0;
    scratch = Buffer.create 1024;
    wkeys = [||];
    wvals = Bytes.empty;
  }

(* Constructors.  Those handed [memo]'s shared master start on its root
   lineage: every Kv built on one memo's root must start from the same,
   not yet modified, master image (the deployment passes the one it
   copies for every replica).  Without [memo] a Kv gets a private one. *)
let create packed = make ~root:false packed
let memory ?(n_records = 600_000) () = create (Memory.packed (Memory.create ~n_records))
let of_master ?memo master = make ?memo ~root:true (Memory.packed (Memory.of_copy master))
let of_records ?memo records = make ?memo ~root:true (Memory.packed (Memory.of_records records))

(* A store that recovered earlier state holds something other than
   [init], so only a fresh store built from the master is on the root. *)
let disk ?memo ?snapshot_every ?init ~dir ~n_records () =
  let store = Blockstore.open_or_create ?snapshot_every ?init ~dir ~n_records () in
  let root = Option.is_some init && not (Blockstore.recovered store) in
  make ?memo ~root (Blockstore.packed store)

let records t = t.records
let height t = t.height

(* Execute every transaction of [b] against current state, appending
   each result value to the scratch buffer (8 bytes LE per txn, after
   the batch digest).  With [mutate] writes land in [records] and in
   the write-set scratch; without it the batch is served read-only
   against a frozen state.  Returns the write-set size.  The write path
   keeps the historical table semantics — new = splitmix64_mix(old) +
   txn.value, mixer hand-inlined so the load-mix-store chain stays in
   unboxed int64 registers (see lib/prng/splitmix64.ml). *)
let exec_into t (b : Batch.t) ~mutate ~reads ~writes ~scans ~rows : int =
  let txns = b.Batch.txns in
  let records = t.records in
  let n = t.n in
  Buffer.clear t.scratch;
  Buffer.add_string t.scratch b.Batch.digest;
  if mutate && Array.length t.wkeys < Array.length txns then begin
    t.wkeys <- Array.make (Array.length txns) 0;
    t.wvals <- Bytes.create (8 * Array.length txns)
  end;
  let wc = ref 0 in
  for i = 0 to Array.length txns - 1 do
    let txn = Array.unsafe_get txns i in
    let key = txn.Txn.key mod n in
    let key = if key < 0 then key + n else key in
    match txn.Txn.op with
    | Txn.Read ->
        incr reads;
        Buffer.add_int64_le t.scratch (Bigarray.Array1.unsafe_get records key)
    | Txn.Scan ->
        incr scans;
        let len = Txn.scan_len txn in
        rows := !rows + len;
        (* Fold the scanned rows through the mixer so the scan result
           witnesses every row it touched. *)
        let acc = ref 0L in
        for j = 0 to len - 1 do
          let k = key + j in
          let k = if k >= n then k - n else k in
          acc := Splitmix64.mix (Int64.logxor !acc (Bigarray.Array1.unsafe_get records k))
        done;
        Buffer.add_int64_le t.scratch !acc
    | Txn.Write ->
        incr writes;
        let z = Int64.add (Bigarray.Array1.unsafe_get records key) 0x9E3779B97F4A7C15L in
        let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
        let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
        let z = Int64.logxor z (Int64.shift_right_logical z 31) in
        let nv = Int64.add z txn.Txn.value in
        if mutate then begin
          Bigarray.Array1.unsafe_set records key nv;
          t.wkeys.(!wc) <- key;
          Bytes.set_int64_le t.wvals (8 * !wc) nv;
          incr wc
        end;
        Buffer.add_int64_le t.scratch nv
  done;
  !wc

let hit (e : entry) t (b : Batch.t) =
  e.height = t.height && e.pre = t.lineage && e.txns == b.Batch.txns
  && String.equal e.digest b.Batch.digest

(* Execute [b] and record the outcome as an entry from the current
   height and lineage. *)
let execute t (b : Batch.t) ~mutate : entry =
  let reads = ref 0 and writes = ref 0 and scans = ref 0 and rows = ref 0 in
  let wc = exec_into t b ~mutate ~reads ~writes ~scans ~rows in
  {
    height = t.height;
    pre = t.lineage;
    txns = b.Batch.txns;
    digest = b.Batch.digest;
    post = (if mutate then fresh_lineage () else t.lineage);
    keys = Array.sub t.wkeys 0 wc;
    vals = Bytes.sub t.wvals 0 (8 * wc);
    result =
      {
        App.digest = Sha256.digest (Buffer.contents t.scratch);
        reads = !reads;
        writes = !writes;
        scans = !scans;
        scanned_rows = !rows;
      };
  }

(* Serve [b] from [ring.(slot)] when its key matches (an apply writes
   the recorded write set into this Kv's records), else execute it and
   publish the entry there. *)
let run t ring slot (b : Batch.t) ~mutate : App.result =
  let cached = Array.unsafe_get ring slot in
  let e =
    if hit cached t b then begin
      t.memo_hits <- t.memo_hits + 1;
      if mutate then
        for k = 0 to Array.length cached.keys - 1 do
          Bigarray.Array1.unsafe_set t.records
            (Array.unsafe_get cached.keys k)
            (Bytes.get_int64_le cached.vals (8 * k))
        done;
      cached
    end
    else begin
      t.memo_misses <- t.memo_misses + 1;
      let e = execute t b ~mutate in
      Array.unsafe_set ring slot e;
      e
    end
  in
  if mutate then begin
    t.log_block ~height:t.height ~keys:e.keys ~values:e.vals ~count:(Array.length e.keys);
    t.height <- t.height + 1;
    t.lineage <- e.post
  end;
  let r = e.result in
  t.reads <- t.reads + r.App.reads;
  t.writes <- t.writes + r.App.writes;
  t.scans <- t.scans + r.App.scans;
  t.scanned_rows <- t.scanned_rows + r.App.scanned_rows;
  r

let apply t b = run t t.memo.applies (t.height land (slots - 1)) b ~mutate:true
let read t b = run t t.memo.reads (read_slot b) b ~mutate:false

let memo_hits t = t.memo_hits
let memo_misses t = t.memo_misses

let state_digest t = Backend.digest_records t.records

let snapshot t : App.snapshot =
  { App.height = t.height; state = Backend.serialize_records t.records }

(* Forward-ratchet only: a snapshot at or below the current height is
   ignored (a late state transfer must never rewind progress). *)
let restore t (s : App.snapshot) =
  if s.App.height > t.height then begin
    Backend.restore_records t.records s.App.state;
    t.height <- s.App.height;
    t.lineage <- fresh_lineage ();
    t.note_restore ~height:s.App.height
  end

let close t = t.backend_close ()

let app (t : t) : App.t =
  {
    App.apply = apply t;
    read = read t;
    height = (fun () -> t.height);
    state_digest = (fun () -> state_digest t);
    snapshot = (fun () -> snapshot t);
    restore = restore t;
    reads = (fun () -> t.reads);
    writes = (fun () -> t.writes);
    scans = (fun () -> t.scans);
    close = (fun () -> close t);
  }
