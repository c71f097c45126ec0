(* Host self time by layer: an ITIMER_PROF sampler (like
   bench/profile.ml) that charges each sample to the layer owning the
   innermost OCaml frame under lib/.  The timer fires at most once per
   kernel tick, so a layer's seconds are its share of the samples times
   the process CPU time the sampling window measured.

   - Frames outside lib/ (the standard library, the runtime) are
     charged to the nearest lib/ frame below them: a Hashtbl probe made
     by the engine is engine time.
   - lib/prng is a helper: its samples go to whichever layer called it
     (the YCSB generator, the block store's checksums).
   - lib/crypto is a layer of its own, and is also split by calling
     layer — the first frame below it outside crypto, prng and the
     shared types — into storage (storage, ledger), protocol (the five
     protocols and recovery), the tracer's own event digest (trace;
     traced runs only) and fabric (everything else).
   - lib/sim is split by file into engine (event queue and heap),
     network (links, topology, traffic counters) and cpu (the per-node
     stage pipeline).
   - Samples with no lib/ frame at all (the benchmark's own code, GC
     work reached from it) count as "other". *)

(* Every directory under lib/ and the layer its frames belong to;
   [None] marks a helper charged to its caller.  The benchmark's tests
   check that this covers lib/ exactly. *)
let dir_layers =
  [
    ("adversary", Some "adversary");
    ("chaos", Some "chaos");
    ("check", Some "check");
    ("core", Some "fabric");
    ("crypto", Some "crypto");
    ("experiments", Some "fabric");
    ("fabric", Some "fabric");
    ("geobft", Some "proto");
    ("hotstuff", Some "proto");
    ("ledger", Some "ledger");
    ("pbft", Some "proto");
    ("prng", None);
    ("recovery", Some "recovery");
    ("sim", Some "sim");
    ("steward", Some "proto");
    ("storage", Some "storage");
    ("sweep", Some "fabric");
    ("trace", Some "trace");
    ("types", Some "fabric");
    ("ycsb", Some "ycsb");
    ("zyzzyva", Some "proto");
  ]

let sim_layer file =
  match Filename.basename file with
  | "engine.ml" | "heap.ml" | "time.ml" -> "sim.engine"
  | "cpu.ml" -> "sim.cpu"
  | _ -> "sim.network"

(* What one frame says about ownership. *)
type frame = Lib of string * string  (* dir, file *) | Elsewhere

let frame_of_file file =
  (* Paths are as the compiler saw them: "lib/<dir>/<file>.ml". *)
  match String.split_on_char '/' file with
  | "lib" :: dir :: _ :: _ -> Lib (dir, file)
  | _ -> Elsewhere

let layer_of_lib dir file =
  match List.assoc_opt dir dir_layers with
  | Some (Some "sim") -> Some (sim_layer file)
  | Some l -> l
  | None -> Some "fabric"

let crypto_caller dir =
  match dir with
  | "storage" | "ledger" -> "crypto.by_storage"
  | "geobft" | "pbft" | "zyzzyva" | "hotstuff" | "steward" | "recovery" -> "crypto.by_protocol"
  | "trace" -> "crypto.by_trace"
  | _ -> "crypto.by_fabric"

(* Raw frame -> frames it stands for (inlined frames first), memoized:
   symbolizing is the only expensive part of a sample. *)
let memo : (Printexc.raw_backtrace_entry, frame list) Hashtbl.t = Hashtbl.create 4096

let frames_of_entry e =
  match Hashtbl.find_opt memo e with
  | Some fs -> fs
  | None ->
      let fs =
        match Printexc.backtrace_slots_of_raw_entry e with
        | None -> []
        | Some slots ->
            Array.to_list slots
            |> List.map (fun s ->
                   match Printexc.Slot.location s with
                   | None -> Elsewhere
                   | Some loc -> frame_of_file loc.Printexc.filename)
      in
      Hashtbl.replace memo e fs;
      fs

let counts : (string, int) Hashtbl.t = Hashtbl.create 32
let total = ref 0
let bump k = Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k))

(* Attribute one sample given its frames, innermost first. *)
let attribute frames =
  let rec owner = function
    | [] -> bump "other"
    | Elsewhere :: rest -> owner rest
    | Lib (dir, file) :: rest -> (
        match layer_of_lib dir file with
        | None -> owner rest
        | Some "crypto" ->
            bump "crypto";
            caller rest
        | Some l -> bump l)
  and caller = function
    | [] -> bump "crypto.by_fabric"
    | Lib (("crypto" | "prng" | "types"), _) :: rest | Elsewhere :: rest -> caller rest
    | Lib (dir, _) :: _ -> bump (crypto_caller dir)
  in
  owner frames

let interval = 0.001
let cpu_at_start = ref 0.
let cpu_s = ref 0.

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let on_tick _ =
  incr total;
  let bt = Printexc.get_callstack 64 in
  attribute
    (List.concat_map frames_of_entry (Array.to_list (Printexc.raw_backtrace_entries bt)))

let start () =
  Hashtbl.reset counts;
  total := 0;
  cpu_at_start := cpu_now ();
  Sys.set_signal Sys.sigprof (Sys.Signal_handle on_tick);
  ignore (Unix.setitimer Unix.ITIMER_PROF { Unix.it_interval = interval; it_value = interval })

let stop () =
  ignore (Unix.setitimer Unix.ITIMER_PROF { Unix.it_interval = 0.; it_value = 0. });
  Sys.set_signal Sys.sigprof Sys.Signal_default;
  cpu_s := cpu_now () -. !cpu_at_start

(* Seconds of host CPU time charged to [layer] in the last sampling window. *)
let self_s layer =
  if !total = 0 then 0.
  else float_of_int (Option.value ~default:0 (Hashtbl.find_opt counts layer)) /. float_of_int !total *. !cpu_s

let samples () = !total
