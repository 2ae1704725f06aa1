(* Reference batches filled ahead of the consumer.  See producer.mli.

   The helper and the consumer share four counters.  [posted] and
   [freed] are written by the consumer only, [settled] and [filled] by
   the helper only; batch [s] (counted over every job) lives in slot
   [s land 1], and the helper may fill it once [freed > s - 2].  Batch
   contents, the [last] flags and the job array are plain fields: each
   is published by the atomic write that follows it and read after the
   atomic read that sees that write.

   A waiting side spins for a while, then sleeps.  The consumer sleeps
   on a condition, which allocates nothing on its domain; the helper
   sleeps on a pipe, whose [select] gives its wait for the next job a
   timeout.  A sleeper raises its flag before its last look at the
   state it waits for, and the other side looks at the flag after
   changing that state, so one of the two always sees the other. *)

module Walker = Pcolor_comp.Walker

type helper = {
  posted : int Atomic.t; (* jobs handed over; [retired] while no helper runs *)
  settled : int Atomic.t; (* jobs the helper finished or abandoned *)
  filled : int Atomic.t; (* batches published *)
  freed : int Atomic.t; (* batches handed back *)
  cancelled : bool Atomic.t;
  epoch : int Atomic.t; (* bumped on every wake-up of the consumer *)
  consumer_asleep : bool Atomic.t;
  lock : Mutex.t;
  wake : Condition.t;
  helper_asleep : bool Atomic.t;
  bell_r : Unix.file_descr; (* a byte here wakes the helper *)
  bell_w : Unix.file_descr;
  mutable domain : unit Domain.t option;
}

type t = {
  slots : Walker.batch array; (* the ring *)
  last : bool array; (* per slot: its batch ends its walker *)
  mutable job : Walker.t array;
  mutable inline : bool; (* the consumer fills this job itself *)
  mutable cursor : int; (* inline: the walker being filled *)
  mutable taken : int; (* batches taken from the helper *)
  helper : helper option; (* on the main domain of a process with a spare core *)
}

let retired = min_int

(* Spin rounds ([Domain.cpu_relax], about 20 ns each) before a wait
   sleeps.  The consumer waits for a batch being filled right now; the
   helper waits for the consumer to free a slot or to reach the next
   nest, and sleeping there would put a wake-up on the consumer's
   path. *)
let consumer_spins = 1 lsl 12

let helper_spins = 1 lsl 16

(* A helper with no job for this long leaves; the next job spawns a new
   one.  A second live domain, even asleep, takes part in every minor
   collection and slows the major cycle of the whole process, which a
   program that has stopped simulating should not pay. *)
let idle_limit = 1.0

(* ---- the consumer sleeps on the condition ---- *)

let wake_consumer h =
  Atomic.incr h.epoch;
  if Atomic.get h.consumer_asleep then begin
    Mutex.lock h.lock;
    Condition.broadcast h.wake;
    Mutex.unlock h.lock
  end

(* Sleep until the epoch leaves [e]. *)
let consumer_sleep h e =
  Mutex.lock h.lock;
  Atomic.set h.consumer_asleep true;
  (try
     while Atomic.get h.epoch = e do
       Condition.wait h.wake h.lock
     done
   with ex ->
     Atomic.set h.consumer_asleep false;
     Mutex.unlock h.lock;
     raise ex);
  Atomic.set h.consumer_asleep false;
  Mutex.unlock h.lock

(* Wait until [ready h x]; [ready] is a closed top-level function, so
   waiting allocates nothing. *)
let rec consumer_await ready h x spins =
  if not (ready h x) then
    if spins > 0 then begin
      Domain.cpu_relax ();
      consumer_await ready h x (spins - 1)
    end
    else begin
      let e = Atomic.get h.epoch in
      if not (ready h x) then consumer_sleep h e;
      consumer_await ready h x 0
    end

(* ---- the helper sleeps on the pipe ---- *)

let ding = Bytes.make 1 '!'

let wake_helper h =
  if Atomic.get h.helper_asleep then
    try ignore (Unix.single_write h.bell_w ding 0 1)
    with Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> () (* already full of wake-ups *)

(* Sleep until a wake-up or [timeout] seconds (negative: no limit);
   false on a timeout.  The caller raised [helper_asleep] before its
   last look at the state it waits for. *)
let helper_sleep h timeout =
  let woken =
    match Unix.select [ h.bell_r ] [] [] timeout with
    | [], _, _ -> false
    | _ -> true
    | exception Unix.Unix_error (EINTR, _, _) -> true
  in
  Atomic.set h.helper_asleep false;
  let buf = Bytes.create 64 in
  (try
     while Unix.read h.bell_r buf 0 64 > 0 do
       ()
     done
   with Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ());
  woken

let rec helper_await ready h x spins =
  if not (ready h x) then
    if spins > 0 then begin
      Domain.cpu_relax ();
      helper_await ready h x (spins - 1)
    end
    else begin
      Atomic.set h.helper_asleep true;
      if ready h x then Atomic.set h.helper_asleep false else ignore (helper_sleep h (-1.0));
      helper_await ready h x 0
    end

let filled_past h s = Atomic.get h.filled > s

let room_for h s = Atomic.get h.cancelled || s - Atomic.get h.freed < 2

let settled_upto h j = Atomic.get h.settled >= j

(* Wait for job [j]: true once it is posted; false when the helper
   retires instead, after [idle_limit] seconds without it. *)
let rec await_job h j spins =
  if Atomic.get h.posted >= j then true
  else if spins > 0 then begin
    Domain.cpu_relax ();
    await_job h j (spins - 1)
  end
  else begin
    Atomic.set h.helper_asleep true;
    let timed_out =
      if Atomic.get h.posted >= j then begin
        Atomic.set h.helper_asleep false;
        false
      end
      else not (helper_sleep h idle_limit)
    in
    (* the consumer posts with a compare-and-set too: exactly one wins *)
    if timed_out && Atomic.compare_and_set h.posted (j - 1) retired then false
    else await_job h j 0
  end

(* Fill a job's walkers in order, two batches ahead of the consumer at
   most, until the job ends or is cancelled. *)
let fill_job t h =
  let job = t.job in
  let i = ref 0 in
  while !i < Array.length job && not (Atomic.get h.cancelled) do
    let s = Atomic.get h.filled in
    helper_await room_for h s helper_spins;
    if not (Atomic.get h.cancelled) then begin
      let k = s land 1 in
      let b = t.slots.(k) in
      Walker.reset_batch b;
      let fin = Walker.fill_runs job.(!i) b in
      t.last.(k) <- fin;
      Atomic.set h.filled (s + 1);
      wake_consumer h;
      if fin then incr i
    end
  done

let rec serve t h j =
  if await_job h j helper_spins then begin
    fill_job t h;
    Atomic.set h.settled j;
    wake_consumer h;
    serve t h (j + 1)
  end

let create_helper () =
  let bell_r, bell_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock bell_r;
  Unix.set_nonblock bell_w;
  {
    posted = Atomic.make retired;
    settled = Atomic.make 0;
    filled = Atomic.make 0;
    freed = Atomic.make 0;
    cancelled = Atomic.make false;
    epoch = Atomic.make 0;
    consumer_asleep = Atomic.make false;
    lock = Mutex.create ();
    wake = Condition.create ();
    helper_asleep = Atomic.make false;
    bell_r;
    bell_w;
    domain = None;
  }

let create () =
  {
    slots = [| Walker.create_batch (); Walker.create_batch () |];
    last = [| false; false |];
    job = [||];
    inline = true;
    cursor = 0;
    taken = 0;
    helper =
      (if Domain.is_main_domain () && Domain.recommended_domain_count () > 1 then
         Some (create_helper ())
       else None);
  }

let key = Domain.DLS.new_key create

let get () = Domain.DLS.get key

let start t job =
  t.job <- job;
  match t.helper with
  | Some h when not (Pcolor_util.Pool.parallel ()) ->
    t.inline <- false;
    let p = Atomic.get h.posted in
    if p <> retired && Atomic.compare_and_set h.posted p (p + 1) then wake_helper h
    else begin
      (* no helper yet, or it retired: start one on this job *)
      Option.iter Domain.join h.domain;
      let j = Atomic.get h.settled + 1 in
      Atomic.set h.posted j;
      h.domain <- Some (Domain.spawn (fun () -> serve t h j))
    end
  | _ ->
    t.inline <- true;
    t.cursor <- 0

let next t =
  if t.inline then begin
    let b = t.slots.(0) in
    Walker.reset_batch b;
    let fin = Walker.fill_runs t.job.(t.cursor) b in
    t.last.(0) <- fin;
    if fin then t.cursor <- t.cursor + 1;
    b
  end
  else begin
    let s = t.taken in
    consumer_await filled_past (Option.get t.helper) s consumer_spins;
    t.slots.(s land 1)
  end

let ends_walker t = if t.inline then t.last.(0) else t.last.(t.taken land 1)

let release t =
  if not t.inline then begin
    let h = Option.get t.helper in
    let s = t.taken + 1 in
    t.taken <- s;
    Atomic.set h.freed s;
    wake_helper h
  end

let cancel t =
  if not t.inline then begin
    let h = Option.get t.helper in
    let j = Atomic.get h.posted in
    if Atomic.get h.settled < j then begin
      Atomic.set h.cancelled true;
      wake_helper h;
      consumer_await settled_upto h j consumer_spins;
      Atomic.set h.cancelled false
    end;
    (* the helper is idle: drop the batches nobody will consume *)
    let f = Atomic.get h.filled in
    t.taken <- f;
    Atomic.set h.freed f
  end
