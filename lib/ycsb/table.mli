(** The replicated YCSB table (paper §4: "an active set of 600k
    records", identically initialized on every replica).

    Execution lives in {!Rdb_storage.Kv}, the only writer of a
    deployment's records.  A [Table.t] is a read-only view over the
    same Bigarray record storage ({!of_records} wraps a live backend
    mirror without copying) for reading values, fingerprints and state
    digests.  That single writer is the premise of the cross-replica
    execution memo, which replays a recorded write set onto every
    replica whose state it knows by lineage. *)

type records = Rdb_storage.Backend.records

type t

val default_records : int
(** 600_000, as in the paper. *)

val create : ?n_records:int -> unit -> t
(** A fresh table in the shared initial state. *)

val of_records : records -> t
(** Zero-copy view over live backend records.  Reads observe the
    backend's current state. *)

val records : t -> records

val n_records : t -> int

val read : t -> key:int -> int64

val state_digest : t -> string
(** SHA-256 over the full state (O(n); tests and checkpoint audits). *)

val quick_fingerprint : ?k:int -> t -> int64
(** Cheap fingerprint over the first [k] records (default 4096). *)
