(** Hash-probe self-test (DESIGN §16): recovers the slice hash of a
    hashed/sliced external cache from eviction behaviour alone — the
    {!Pcolor_memsim.Slice} is a black box exposing only
    access/flush/miss counts.  Recovery is GF(2) matrix learning over a
    conflict oracle built from eviction sets; the result is compared to
    the configured hash by canonical row space. *)

(** A recovery: mask rows over physical frame bits (shifted by
    [group_bits], comparable to {!Pcolor_memsim.Ahash.masks}) plus
    probe accounting. *)
type recovery = {
  masks : int array;
  n_slices : int;  (** [2 ^ Array.length masks] *)
  group_bits : int;
  window : int;  (** frame bits [group_bits .. group_bits+window-1] probed *)
  tests : int;  (** conflict-oracle invocations *)
}

val default_window : int

(** [max_window cfg] is the widest [window] whose probe addresses (page,
    group and window bits plus the eviction-set offsets above them) fit
    in a non-negative OCaml int. *)
val max_window : Pcolor_memsim.Config.t -> int

(** [recover ?window cfg] builds a fresh standalone slice cache from
    [cfg] and recovers its hash from conflicts alone ([window] defaults
    to {!default_window}; the hash must not tap frame bits at or above
    [group_bits + window]).  Raises [Invalid_argument] unless
    [1 <= window <= max_window cfg]. *)
val recover : ?window:int -> Pcolor_memsim.Config.t -> recovery

(** [recover] + [check]: the CI gate.  [Error] carries the (wrong)
    recovery for rendering. *)
val self_test :
  ?window:int -> Pcolor_memsim.Config.t -> (recovery, recovery * string) result

(** [render r] draws the recovered matrix for the CLI. *)
val render : recovery -> string
