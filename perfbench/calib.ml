(* A fixed reference workload, independent of the program under test:
   the benchmark's yardstick for how fast the machine runs right now.
   On a shared machine the same simulation's host time drifts by tens
   of percent from one minute to the next; host times divided by this
   kernel's time, measured in the same process around each
   repetition, cancel much of that drift.  The kernel is integer work
   over a 32 KB buffer: it stays in the first-level cache and allocates
   nothing, so neither the process's page placement nor the state of
   its heap affects it (a buffer larger than the caches made the
   kernel's own time depend on where each process's pages landed). *)

let words = 1 lsl 12
let buf = lazy (Array.make words 0)

let kernel () =
  let a = Lazy.force buf in
  let mask = words - 1 in
  let x = ref 0x2545F4914F6CDD1D and acc = ref 0 in
  for i = 1 to 60_000_000 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    let j = !x land mask in
    a.(j) <- a.(j) + i;
    acc := !acc + a.((j + 4099) land mask)
  done;
  !acc

(* Seconds one pass of the kernel takes now. *)
let measure () =
  ignore (Lazy.force buf);
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (kernel ()));
  Unix.gettimeofday () -. t0
