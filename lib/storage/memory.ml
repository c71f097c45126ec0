(* In-memory backend: the records array is the entire store.  This is
   the seed repo's Bigarray YCSB table refactored behind the backend
   signature — no durability, no block log, zero per-block overhead. *)

type t = { records : Backend.records }

let create ~n_records = { records = Backend.init_records ~n_records }

(* Clone of a master image: deployments initialize one table and blit
   per replica rather than re-deriving 600k records n times. *)
let of_copy master = { records = Backend.copy_records master }

(* Adopt an existing records array without copying (the caller gives
   up ownership — the Kv over this store becomes the only writer). *)
let of_records records = { records }

let records t = t.records
let height (_ : t) = 0
let log_block (_ : t) ~height:_ ~keys:_ ~values:_ ~count:_ = ()
let note_restore (_ : t) ~height:_ = ()
let close (_ : t) = ()

let packed (t : t) = Backend.Packed ((module struct
  type nonrec t = t

  let records = records
  let height = height
  let log_block = log_block
  let note_restore = note_restore
  let close = close
end), t)
