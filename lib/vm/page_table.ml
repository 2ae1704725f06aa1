(** Per-address-space virtual→physical page map.

    The workloads are single-address-space parallel programs (SUIF's
    master/slave threads share memory), so one table serves all CPUs;
    per-CPU TLBs cache its entries.  Both directions are
    {!Pcolor_util.Itab}s: lookups run on every translation and every
    reclaim-clock step, and return [-1] for "absent" instead of
    allocating an option. *)

module Itab = Pcolor_util.Itab

type t = {
  map : Itab.t; (* vpage -> frame *)
  rev : Itab.t; (* frame -> vpage; recoloring and reclaim need the inverse *)
}

(** [create ()] is an empty page table.  The tables start small and
    grow on demand: a mix holds one table per job, and pre-sizing them
    shows up in peak heap. *)
let create () = { map = Itab.create (); rev = Itab.create () }

(** [frame_of t vpage] is the frame backing [vpage], or [-1]. *)
let frame_of t vpage = Itab.find t.map vpage ~default:(-1)

(** [vpage_of t frame] is the virtual page mapped to [frame], or [-1] —
    the lookup the recoloring daemon and the reclaimer need to turn
    physical pages back into virtual pages. *)
let vpage_of t frame = Itab.find t.rev frame ~default:(-1)

(** [mem t vpage] tests mappedness. *)
let mem t vpage = Itab.mem t.map vpage

(** [map t ~vpage ~frame] installs a mapping; raises [Invalid_argument]
    if [vpage] is already mapped (remapping must go through [unmap]). *)
let map t ~vpage ~frame =
  if Itab.mem t.map vpage then invalid_arg "Page_table.map: page already mapped";
  Itab.set t.map vpage frame;
  Itab.set t.rev frame vpage

(** [unmap t vpage] removes a mapping, returning the frame it held. *)
let unmap t vpage =
  let frame = frame_of t vpage in
  if frame < 0 then None
  else begin
    Itab.remove t.map vpage;
    Itab.remove t.rev frame;
    Some frame
  end

(** [mapped_count t] is the number of live mappings. *)
let mapped_count t = Itab.length t.map

(** [iter t f] applies [f ~vpage ~frame] to every mapping, in
    unspecified order. *)
let iter t f = Itab.iter (fun vpage frame -> f ~vpage ~frame) t.map
