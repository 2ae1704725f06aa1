(** Line-granularity coherence directory with word-level write masks.

    The directory serves three purposes:

    - {b invalidation}: a write by CPU [c] invalidates every other CPU's
      cached copy, so their next access misses even if their external
      cache still holds the (stale) tag;
    - {b classification}: an invalidation miss is {e true sharing} when
      a word actually written by the remote CPU is the one accessed, and
      {e false sharing} otherwise (Dubois et al., as used in §4.1);
    - {b sourcing}: a miss to a line held dirty by another CPU is
      serviced cache-to-cache at the higher remote latency (750 ns in the
      base configuration).

    State is kept per line — a validity bitmask over CPUs, the last
    writer, whether the writer's copy is dirty, and the mask of words
    written since the last writer change.  The directory is consulted on
    every external-cache miss and every prefetch, so the whole per-line
    state is packed into a single immediate int — at most
    {!Config.max_cpus} CPUs and 128-byte lines take 32 + 6 + 1 + 16 = 55
    bits — stored in a {!Pcolor_util.Densemap}: a direct-indexed array
    over physical line numbers, which frames from the compact frame pool
    keep dense, so a probe is one bounds compare and one load, no
    hashing and no boxing.

    Packed word layout, low to high:
    {v
      bits [0, n_cpus)            valid_mask
      bits [n_cpus, +wbits)       writer + 1   (0 = never written)
      next bit                    dirty
      bits [.., +words_per_line)  wmask
    v}
    A packed word is non-negative, so the map's [-1] marks a line that
    was never entered.  [inspect] reads it as the all-zero word —
    "incoherent, never written, clean" — while [writeback] and [evict]
    leave such a line unentered. *)

type t = {
  tab : Pcolor_util.Densemap.t; (* line number -> packed word, -1 = never entered *)
  word_shift : int; (* log2 of word size, 8-byte words *)
  words_per_line_mask : int;
  valid_all : int; (* (1 lsl n_cpus) - 1 *)
  writer_shift : int; (* = n_cpus *)
  writer_mask : int; (* field mask for writer + 1, unshifted *)
  dirty_bit : int; (* single-bit mask, already shifted *)
  wmask_shift : int;
}

(** [create ?n_cpus ~line_size] builds an empty directory for
    [line_size]-byte lines with 8-byte words.  [n_cpus] (default
    {!Config.max_cpus}) bounds the CPU ids that will be recorded.
    Raises [Invalid_argument] when the packed state does not fit an
    immediate int, which {!Config.validate} rules out for every
    machine. *)
let create ?(n_cpus = Config.max_cpus) ~line_size () =
  if line_size < 8 || not (Pcolor_util.Bits.is_pow2 line_size) then
    invalid_arg "Directory.create: bad line size";
  if n_cpus < 1 then invalid_arg "Directory.create: bad cpu count";
  let words_per_line = line_size / 8 in
  (* writer field holds writer + 1 in [0, n_cpus] *)
  let writer_bits = Pcolor_util.Bits.log2 (Pcolor_util.Bits.next_pow2 (n_cpus + 1)) in
  if n_cpus + writer_bits + 1 + words_per_line > Sys.int_size - 1 then
    invalid_arg "Directory.create: line state does not fit an int";
  {
    (* start small and let the table grow: pre-sizing for the largest
       runs made every machine pay ~1 MB of zeroed arrays up front,
       which dominated creation time for the scaled-down experiments *)
    tab = Pcolor_util.Densemap.create ~initial:(1 lsl 12);
    word_shift = 3;
    words_per_line_mask = words_per_line - 1;
    valid_all = (1 lsl n_cpus) - 1;
    writer_shift = n_cpus;
    writer_mask = (1 lsl writer_bits) - 1;
    dirty_bit = 1 lsl (n_cpus + writer_bits);
    wmask_shift = n_cpus + writer_bits + 1;
  }

let word_bit t addr = 1 lsl ((addr lsr t.word_shift) land t.words_per_line_mask)

(* packed-word field accessors *)
let[@inline] p_valid t w = w land t.valid_all

let[@inline] p_writer t w = ((w lsr t.writer_shift) land t.writer_mask) - 1

let[@inline] p_dirty t w = w land t.dirty_bit <> 0

let[@inline] p_wmask t w = w lsr t.wmask_shift

let[@inline] pack t ~valid ~writer ~dirty ~wmask =
  valid
  lor ((writer + 1) lsl t.writer_shift)
  lor (if dirty then t.dirty_bit else 0)
  lor (wmask lsl t.wmask_shift)

(* a never-entered line reads as the all-zero word *)
let[@inline] present_or_zero w = if w < 0 then 0 else w

(* Verdicts are packed into an immediate int too (the directory is hit
   on every external miss and every prefetch):
     bit 0  coherent      bit 2  true sharing
     bit 1  remote_dirty  bit 3  false sharing *)

(** [v_coherent v] — the CPU's cached copy (if any) is still valid; a
    cache-tag hit with [v_coherent = false] is an invalidation miss. *)
let[@inline] v_coherent v = v land 1 <> 0

(** [v_remote_dirty v] — on a miss, the line must be fetched dirty from
    another CPU. *)
let[@inline] v_remote_dirty v = v land 2 <> 0

(** [v_sharing v] — for an invalidation miss: whether the accessed word
    was remotely written. *)
let[@inline] v_sharing v =
  if v land 4 <> 0 then `True else if v land 8 <> 0 then `False else `None

(** [inspect t ~cpu ~line ~addr] reports the coherence view of CPU [cpu]
    for the reference at [addr] without changing state.  [addr] selects
    the word for the true/false-sharing test.  Decode the packed verdict
    with {!v_coherent}, {!v_sharing} and {!v_remote_dirty}. *)
let inspect t ~cpu ~line ~addr =
  let w = present_or_zero (Pcolor_util.Densemap.find t.tab line) in
  let coherent = w land (1 lsl cpu) <> 0 in
  let writer = p_writer t w in
  let sharing =
    if coherent || writer < 0 || writer = cpu then 0
    else if p_wmask t w land word_bit t addr <> 0 then 4
    else 8
  in
  (if coherent then 1 else 0)
  lor (if p_dirty t w && writer >= 0 && writer <> cpu then 2 else 0)
  lor sharing

(** [record_read t ~cpu ~line] notes that CPU [cpu] now holds a coherent
    copy.  If the line was dirty at another CPU, that copy transitions to
    clean-shared (models the cache-to-cache transfer + memory update).
    Returns [true] if this read forced a remote dirty line clean (so the
    caller can also clean the remote cache's dirty bit). *)
let record_read t ~cpu ~line =
  let w = present_or_zero (Pcolor_util.Densemap.find t.tab line) in
  let writer = p_writer t w in
  let forced_clean = p_dirty t w && writer >= 0 && writer <> cpu in
  let w = if forced_clean then w land lnot t.dirty_bit else w in
  Pcolor_util.Densemap.set t.tab line (w lor (1 lsl cpu));
  forced_clean

(** [record_write t ~cpu ~line ~addr] makes CPU [cpu] the exclusive owner
    and accumulates the written word into the mask (the mask resets when
    ownership changes hands, so it reflects "words written since the
    current writer acquired the line").  Returns the bitmask of {e other}
    CPUs whose copies were invalidated — the caller uses a nonempty mask
    to account an upgrade/invalidate bus transaction. *)
let record_write t ~cpu ~line ~addr =
  let w = present_or_zero (Pcolor_util.Densemap.find t.tab line) in
  let me = 1 lsl cpu in
  let invalidated = p_valid t w land lnot me in
  let wmask = if p_writer t w <> cpu then 0 else p_wmask t w in
  Pcolor_util.Densemap.set t.tab line
    (pack t ~valid:me ~writer:cpu ~dirty:true ~wmask:(wmask lor word_bit t addr));
  invalidated

(** [writeback t ~cpu ~line] marks the line clean if [cpu] owned it
    dirty (victim eviction wrote it to memory). *)
let writeback t ~cpu ~line =
  (* a writeback to an untracked line does not create one *)
  let w = Pcolor_util.Densemap.find t.tab line in
  if w >= 0 && p_writer t w = cpu then
    Pcolor_util.Densemap.set t.tab line (w land lnot t.dirty_bit)

(** [evict t ~cpu ~line] clears CPU [cpu]'s validity bit after its cache
    dropped the line, keeping directory state consistent with caches. *)
let evict t ~cpu ~line =
  let w = Pcolor_util.Densemap.find t.tab line in
  if w >= 0 then Pcolor_util.Densemap.set t.tab line (w land lnot (1 lsl cpu))

(** [lines t] is the number of lines the directory tracks (test helper). *)
let lines t = Pcolor_util.Densemap.length t.tab
