(** Chrome trace_event JSONL emitter; see the interface for the format
    and concurrency contract. *)

type sink = {
  spath : string;
  oc : out_channel;
  mutex : Mutex.t;
  mutable next_pid : int;
  mutable closed : bool;
}

type buffer = { sink : sink; bpid : int; buf : Buffer.t }

let open_sink ~path = { spath = path; oc = open_out path; mutex = Mutex.create (); next_pid = 1; closed = false }

let buffer sink =
  Mutex.protect sink.mutex (fun () ->
      let pid = sink.next_pid in
      sink.next_pid <- pid + 1;
      { sink; bpid = pid; buf = Buffer.create 4096 })

let event buf ~ph ~ts ~tid ?cat ?args name =
  let fields =
    [ ("name", Json.Str name); ("ph", Json.Str ph); ("ts", Json.Int ts); ("pid", Json.Int buf.bpid); ("tid", Json.Int tid) ]
  in
  let fields = match cat with Some c -> fields @ [ ("cat", Json.Str c) ] | None -> fields in
  (* thread-scoped instants need "s"; harmless elsewhere so only set it there *)
  let fields = if ph = "i" then fields @ [ ("s", Json.Str "t") ] else fields in
  let fields = match args with Some a -> fields @ [ ("args", Json.Obj a) ] | None -> fields in
  Json.to_buffer buf.buf (Json.Obj fields);
  Buffer.add_char buf.buf '\n'

let duration_begin buf ~ts ~tid ?cat name = event buf ~ph:"B" ~ts ~tid ?cat name

let duration_end buf ~ts ~tid ?cat name = event buf ~ph:"E" ~ts ~tid ?cat name

let instant buf ~ts ~tid ?cat ?args name = event buf ~ph:"i" ~ts ~tid ?cat ?args name

let counter buf ~ts ~tid ?cat ~args name = event buf ~ph:"C" ~ts ~tid ?cat ~args name

let metadata buf ~tid ~name value =
  event buf ~ph:"M" ~ts:0 ~tid ~args:[ ("name", Json.Str value) ] name

let process_name buf name = metadata buf ~tid:0 ~name:"process_name" name

let thread_name buf ~tid name = metadata buf ~tid ~name:"thread_name" name

let flush buf =
  if Buffer.length buf.buf > 0 then begin
    Mutex.protect buf.sink.mutex (fun () ->
        if not buf.sink.closed then begin
          Buffer.output_buffer buf.sink.oc buf.buf;
          Stdlib.flush buf.sink.oc
        end);
    Buffer.clear buf.buf
  end

let close sink =
  Mutex.protect sink.mutex (fun () ->
      if not sink.closed then begin
        sink.closed <- true;
        close_out sink.oc
      end)
