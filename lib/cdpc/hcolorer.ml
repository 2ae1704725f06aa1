(* Hash-aware coloring (DESIGN §16): composing the §5.2 colorer with
   the inverted slice hash.

   Under a hashed/sliced LLC the §5.2 assumption — cache region =
   f(page color) = f(frame mod n_colors) — breaks: two frames of
   *different* believed colors can hash to the same (slice, group) bin
   and conflict, while two frames of the same believed color can land
   in different slices and not conflict at all.  The plain CDPC hints
   are still a perfectly good *bin* schedule (consecutive positions →
   consecutive true cache regions, exactly the §5.2 intent); what is
   wrong is the OS's notion of which frames satisfy a hint.

   So the hash-aware colorer keeps the §5.2 hint generation verbatim —
   hint h means "a frame of true bin h mod n_colors" — and instead
   inverts the hash at the allocator: the frame pool's per-color free
   lists are rebuilt as per-*bin* lists using {!Pcolor_memsim.Ahash.bin_of},
   the full preimage of each bin under the hash.  This is the exact
   inversion of the hash as a set map (the GF(2) matrix is full-rank,
   so bins partition frames evenly); no per-page matrix solve is
   needed.  Under the identity hash the classifier is
   [frame mod n_colors], and hash-aware CDPC coincides with plain CDPC
   bit for bit — a pinned test.

   The decision log names the inversion (chosen_by gains a
   "+hash-inverse(<name>)" suffix, see {!Pcolor_runtime.Audit}), so
   `pcolor explain` shows which mapping the hints were laundered
   through. *)

module Config = Pcolor_memsim.Config
module Ahash = Pcolor_memsim.Ahash

(** [classify cfg] is the frame → true-bin map of [cfg]'s resolved
    slice hash — the {!Pcolor_vm.Frame_pool.create_classified} [classify] argument
    that makes hints target true (slice, set-group) bins.  Bins number
    [n_colors]; under [Identity] this is [frame mod n_colors]. *)
let classify cfg =
  let hash = Config.resolved_hash cfg in
  fun frame -> Ahash.bin_of hash frame

(** [inversion_name cfg] names the hash inversion for decision-log
    [chosen_by] entries, e.g. ["hash-inverse(sandybridge)"]. *)
let inversion_name cfg = Printf.sprintf "hash-inverse(%s)" (Ahash.spec_to_string cfg.Config.l2_hash)
