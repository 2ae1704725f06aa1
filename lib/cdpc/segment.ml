(** Step 1 of the CDPC algorithm: maximal uniform access segments.

    "The algorithm starts by treating the entire virtual address space as
    a single access segment. It processes each array partitioning and
    communication pattern summary in turn, by splitting segments at
    boundaries of arrays and whenever the access pattern within the
    array changes." (§5.2)

    A segment is a contiguous virtual byte range within one array,
    together with the {e processor set} (a bitmask) of CPUs that access
    it during the steady state.  Arrays whose partitioning is not
    page-dense are excluded — CDPC "is only applied to the remaining
    data structures" (§6.1). *)

type t = {
  seg_id : int;
  array : Pcolor_comp.Ir.array_decl;
  lo : int; (* byte VA, inclusive *)
  hi : int; (* byte VA, exclusive *)
  cpus : int; (* processor-set bitmask; never 0 *)
}

(** [bytes s] is the segment length. *)
let bytes s = s.hi - s.lo

(** [pages s ~page_size] is the page range [(first, last)] (inclusive)
    the segment overlaps. *)
let pages s ~page_size = (s.lo / page_size, (s.hi - 1) / page_size)

(** Result of segment computation. *)
type result = {
  segments : t list; (* ascending by (array VA, lo) *)
  excluded : Pcolor_comp.Ir.array_decl list; (* arrays CDPC declined to color *)
}

(** [compute ~summary ~program ~n_cpus] produces the uniform access
    segments of every colorable array, and the list of excluded arrays.
    Array bases must have been assigned (layout ran). *)
let compute ~(summary : Pcolor_comp.Summary.t) ~(program : Pcolor_comp.Ir.program) ~n_cpus =
  let next_id = ref 0 in
  let segments = ref [] in
  let excluded = ref [] in
  List.iter
    (fun (a : Pcolor_comp.Ir.array_decl) ->
      if a.base < 0 then invalid_arg "Segment.compute: run layout first";
      let has_partitions = Pcolor_comp.Summary.partitions_of summary a.id <> [] in
      if has_partitions && not (Pcolor_comp.Summary.colorable summary a.id) then
        excluded := a :: !excluded
      else begin
        let per_cpu =
          Array.init n_cpus (fun cpu ->
              Pcolor_comp.Footprint.program_cpu ~array_id:a.id program ~n_cpus ~cpu)
        in
        (* Sweep: breakpoints at every interval endpoint, clipped to the array. *)
        let a_lo = a.base and a_hi = a.base + Pcolor_comp.Ir.bytes a in
        let points = ref [] in
        Array.iter
          (List.iter (fun (iv : Pcolor_comp.Footprint.interval) ->
               let lo = max a_lo iv.lo and hi = min a_hi iv.hi in
               if lo < hi then points := lo :: hi :: !points))
          per_cpu;
        let points = List.sort_uniq compare !points in
        let rec sweep = function
          | lo :: (hi :: _ as rest) ->
            let mask = ref 0 in
            Array.iteri
              (fun cpu ivs ->
                if
                  List.exists
                    (fun (iv : Pcolor_comp.Footprint.interval) -> iv.lo <= lo && hi <= iv.hi)
                    ivs
                then mask := !mask lor (1 lsl cpu))
              per_cpu;
            if !mask <> 0 then begin
              let id = !next_id in
              incr next_id;
              segments := { seg_id = id; array = a; lo; hi; cpus = !mask } :: !segments
            end;
            sweep rest
          | _ -> ()
        in
        sweep points
      end)
    program.arrays;
  {
    segments =
      List.sort (fun s1 s2 -> compare (s1.array.base, s1.lo) (s2.array.base, s2.lo)) !segments;
    excluded = List.rev !excluded;
  }

(** [coalesce segs] merges adjacent segments of the same array with equal
    processor sets (sweep artifacts from touching intervals). *)
let coalesce segs =
  let rec go = function
    | a :: b :: rest when a.array.Pcolor_comp.Ir.id = b.array.Pcolor_comp.Ir.id && a.hi = b.lo && a.cpus = b.cpus ->
      go ({ a with hi = b.hi } :: rest)
    | a :: rest -> a :: go rest
    | [] -> []
  in
  go segs

(** [total_bytes segs] sums segment lengths — tests check it equals the
    accessed footprint. *)
let total_bytes segs = List.fold_left (fun acc s -> acc + bytes s) 0 segs

(** [pp fmt s] prints one segment. *)
let pp fmt s =
  Format.fprintf fmt "seg%d %s [%#x,%#x) %dB cpus={%s}" s.seg_id s.array.Pcolor_comp.Ir.aname s.lo
    s.hi (bytes s)
    (String.concat "," (List.map string_of_int (Pcolor_util.Bits.bits_to_list s.cpus)))
