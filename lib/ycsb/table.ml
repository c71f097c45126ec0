(* The replicated YCSB table.

   The paper's evaluation: "Each client transaction queries a YCSB
   table with an active set of 600 k records. ... Prior to the
   experiments, each replica is initialized with an identical copy of
   the YCSB table."

   Execution lives in {!Rdb_storage.Kv} (the App state machine over a
   pluggable backend); a [Table.t] is a read-only view over the same
   record storage — tests, examples and benchmarks read values,
   fingerprints and digests through it, and [of_records] wraps a live
   backend's record mirror without copying. *)

module Splitmix64 = Rdb_prng.Splitmix64
module Backend = Rdb_storage.Backend

(* Records live in a Bigarray: unboxed int64 storage that the OCaml GC
   does not scan.  A deployment holds one 600k-record table per replica
   (dozens of tables, hundreds of MB); with boxed int64 arrays the GC
   would re-mark millions of boxes on every major cycle and dominate
   the simulator's wall-clock time. *)
type records = Backend.records

type t = records

let default_records = 600_000

(* Identical initialization on every replica: record i starts at a
   value derived from i, so state digests agree without communication.
   The derivation lives in {!Rdb_storage.Backend.init_records} — the
   single definition shared with every storage backend. *)
let create ?(n_records = default_records) () = Backend.init_records ~n_records

let of_records records = records
let records t = t

let n_records t = Bigarray.Array1.dim t

let read t ~key = Bigarray.Array1.get t (key mod n_records t)

(* Digest of the full state.  O(n); used by tests and checkpoints at
   coarse intervals, so the cost is acceptable (and the *modeled* cost
   of checkpointing is charged separately by the protocols). *)
let state_digest t : string = Backend.digest_records t

(* Cheap incremental fingerprint over the first [k] records, for tests
   that want frequent comparisons. *)
let quick_fingerprint ?(k = 4096) t : int64 =
  let acc = ref 0L in
  let m = min k (n_records t) in
  for i = 0 to m - 1 do
    acc := Splitmix64.mix (Int64.logxor !acc (Bigarray.Array1.get t i))
  done;
  !acc
