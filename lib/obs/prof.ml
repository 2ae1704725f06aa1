(* Self-profiler.  See prof.mli for the contract.

   Representation: fixed int-indexed accumulator arrays, one slot per
   phase, plus a start-stamp slot per phase so phases of different
   kinds may overlap (reclaim fires inside consume).  All mutation is
   on preallocated float/int arrays — cheap, though the ON path is not
   required to be allocation-free (only the OFF path is, and OFF never
   reaches this module). *)

type phase = Fill | Consume | Reclaim | Serialize

let n_phases = 4
let index = function Fill -> 0 | Consume -> 1 | Reclaim -> 2 | Serialize -> 3
let names = [| "walker fill"; "consume/retire"; "reclaim"; "serialize" |]

type t = {
  calls : int array;
  wall : float array;
  minor : float array;
  promoted : float array;
  majors : int array;
  (* start stamps, valid between start and stop of each phase *)
  t0_wall : float array;
  t0_minor : float array;
  t0_promoted : float array;
  t0_majors : int array;
}

let create () =
  {
    calls = Array.make n_phases 0;
    wall = Array.make n_phases 0.0;
    minor = Array.make n_phases 0.0;
    promoted = Array.make n_phases 0.0;
    majors = Array.make n_phases 0;
    t0_wall = Array.make n_phases 0.0;
    t0_minor = Array.make n_phases 0.0;
    t0_promoted = Array.make n_phases 0.0;
    t0_majors = Array.make n_phases 0;
  }

let start t p =
  let i = index p in
  let g = Gc.quick_stat () in
  t.t0_minor.(i) <- g.Gc.minor_words;
  t.t0_promoted.(i) <- g.Gc.promoted_words;
  t.t0_majors.(i) <- g.Gc.major_collections;
  (* wall stamp last so the Gc call is not counted as phase time *)
  t.t0_wall.(i) <- Unix.gettimeofday ()

let stop t p =
  let i = index p in
  let now = Unix.gettimeofday () in
  let g = Gc.quick_stat () in
  t.calls.(i) <- t.calls.(i) + 1;
  t.wall.(i) <- t.wall.(i) +. (now -. t.t0_wall.(i));
  t.minor.(i) <- t.minor.(i) +. (g.Gc.minor_words -. t.t0_minor.(i));
  t.promoted.(i) <- t.promoted.(i) +. (g.Gc.promoted_words -. t.t0_promoted.(i));
  t.majors.(i) <- t.majors.(i) + (g.Gc.major_collections - t.t0_majors.(i))

type row = {
  name : string;
  calls : int;
  wall_s : float;
  minor_words : float;
  promoted_words : float;
  major_collections : int;
}

let rows (t : t) =
  let out = ref [] in
  for i = n_phases - 1 downto 0 do
    if t.calls.(i) > 0 then
      out :=
        {
          name = names.(i);
          calls = t.calls.(i);
          wall_s = t.wall.(i);
          minor_words = t.minor.(i);
          promoted_words = t.promoted.(i);
          major_collections = t.majors.(i);
        }
        :: !out
  done;
  !out

let render t =
  let rs = rows t in
  if rs = [] then "self-profile: no phases recorded\n"
  else begin
    let total = List.fold_left (fun a r -> a +. r.wall_s) 0.0 rs in
    let b = Buffer.create 512 in
    Buffer.add_string b "self-profile (host process, bracketed phases)\n";
    Buffer.add_string b
      (Printf.sprintf "  %-16s %10s %12s %6s %14s %14s %7s\n" "phase" "calls"
         "wall (s)" "%" "minor words" "promoted" "majors");
    List.iter
      (fun r ->
        let share = if total > 0.0 then 100.0 *. r.wall_s /. total else 0.0 in
        Buffer.add_string b
          (Printf.sprintf "  %-16s %10d %12.6f %5.1f%% %14.0f %14.0f %7d\n"
             r.name r.calls r.wall_s share r.minor_words r.promoted_words
             r.major_collections))
      rs;
    Buffer.add_string b
      (Printf.sprintf "  %-16s %10s %12.6f\n" "total" "" total);
    Buffer.contents b
  end
