(* Host-speed calibration.

   The host this benchmark was tuned on runs the simulator up to about
   twice as slowly in some stretches as in others, and a stretch can
   outlast a whole run (README.md, "Noise").  Taking each experiment at
   its fastest repeat removes the short stretches but not a run that is
   slow from start to end.  So the timed loop also times a fixed kernel
   before every experiment; its fastest sample in the run, against the
   fastest the tuning host gives, says how slow the host was throughout
   the run, and the driver divides host times by that factor.

   The kernel is a toy of the simulator's own inner loop, written here
   so that no change to the library moves it: a reference stream of
   sequential runs with random jumps, translated through a hash table
   of virtual pages and looked up in a 2-way set-associative tag
   array.  Of the kernels tried (an arithmetic loop, random reads over
   16 MiB, an array-only page map), this one slowed most like the
   simulator did. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let sets = 8192

let tags = Array.make (2 * sets) (-1)

let pages : (int, int) Hashtbl.t = Hashtbl.create 4096

let refs_per_sample = 100_000

let kernel () =
  let x = ref 7 and a = ref 0 and hits = ref 0 in
  for _ = 1 to refs_per_sample do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    if !x land 15 = 0 then a := (!x lsr 4) land 0x3ffffff else a := !a + 8;
    let vpage = !a lsr 12 in
    let frame =
      match Hashtbl.find_opt pages vpage with
      | Some f -> f
      | None ->
        let f = vpage * 2654435761 land 0xffff in
        Hashtbl.replace pages vpage f;
        f
    in
    let line = (frame lsl 6) lor ((!a lsr 6) land 63) in
    let b = line land (sets - 1) * 2 in
    if tags.(b) = line then incr hits
    else if tags.(b + 1) = line then begin
      incr hits;
      tags.(b + 1) <- tags.(b);
      tags.(b) <- line
    end
    else begin
      tags.(b + 1) <- tags.(b);
      tags.(b) <- line
    end
  done;
  !hits

(* The kernel's fastest sample on the tuning host (a 2-vCPU KVM guest
   on an Intel Xeon host, OCaml 5, release profile): 2.26–2.29 ms over
   about 5000 samples. *)
let reference_s = 2.27e-3

type t = { mutable fastest : float; mutable samples : int }

(* [create ()] fills the page table, so that no sample pays for it. *)
let create () =
  ignore (Sys.opaque_identity (kernel ()));
  { fastest = infinity; samples = 0 }

(* [sample t] times the kernel once and returns the seconds it took. *)
let sample t =
  let t0 = now () in
  ignore (Sys.opaque_identity (kernel ()));
  let dt = now () -. t0 in
  t.fastest <- Float.min t.fastest dt;
  t.samples <- t.samples + 1;
  dt

(* [slowdown t] is how much slower than the tuning host's quiet state
   the host was at its fastest during the run; 1.0 before any sample. *)
let slowdown t = if t.samples = 0 then 1.0 else t.fastest /. reference_s
