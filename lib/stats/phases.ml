(** Phase detection over cycle-epoch timelines.

    Consumes the schema-v4 ["timeline"] artifact section (produced by
    {!Pcolor_memsim.Machine.timeline_json} from a
    {!Pcolor_obs.Sampler}): delta-encoded per-epoch counter rows plus
    context-switch events.  Provides dense per-epoch series extraction,
    a windowed mean-shift change-point detector over any series
    (miss-rate and conflict-pressure are the canonical ones), and the
    text renderings behind [pcolor timeline] and
    [pcolor explain --at]. *)

module J = Pcolor_obs.Json

type t = {
  epoch_cycles : int;
  n_cpus : int;
  columns : string array;
  rows : int array array;  (** delta rows, commit order *)
  events : (int * int * int) array;  (** context switches: time, from, to *)
}

(* ------------------------------------------------------------------ *)
(* Parsing *)

let ( let* ) r f = Result.bind r f

let field name json =
  match J.member name json with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "timeline: missing %S" name)

let as_int what = function
  | J.Int n -> Ok n
  | _ -> Error (Printf.sprintf "timeline: %s is not an integer" what)

let as_arr what = function
  | J.Arr l -> Ok l
  | _ -> Error (Printf.sprintf "timeline: %s is not an array" what)

let at_least what n =
  if n < 1 then Error (Printf.sprintf "timeline: %s is %d, not positive" what n) else Ok ()

let of_json json =
  let* epoch_cycles = field "epoch_cycles" json in
  let* epoch_cycles = as_int "epoch_cycles" epoch_cycles in
  let* n_cpus = field "n_cpus" json in
  let* n_cpus = as_int "n_cpus" n_cpus in
  let* columns = field "columns" json in
  let* columns = as_arr "columns" columns in
  let* columns =
    List.fold_left
      (fun acc c ->
        let* acc = acc in
        match c with
        | J.Str s -> Ok (s :: acc)
        | _ -> Error "timeline: column name is not a string")
      (Ok []) columns
  in
  let columns = Array.of_list (List.rev columns) in
  let width = Array.length columns in
  let* rows = field "rows" json in
  let* rows = as_arr "rows" rows in
  let* rows =
    List.fold_left
      (fun acc r ->
        let* acc = acc in
        let* cells = as_arr "row" r in
        if List.length cells <> width then Error "timeline: row width does not match columns"
        else
          let* cells =
            List.fold_left
              (fun acc c ->
                let* acc = acc in
                let* n = as_int "row cell" c in
                Ok (n :: acc))
              (Ok []) cells
          in
          Ok (Array.of_list (List.rev cells) :: acc))
      (Ok []) rows
  in
  let rows = Array.of_list (List.rev rows) in
  let* events = field "events" json in
  let* events = as_arr "events" events in
  let* events =
    List.fold_left
      (fun acc e ->
        let* acc = acc in
        let* time = field "time" e in
        let* time = as_int "event time" time in
        let* from_asid = field "from" e in
        let* from_asid = as_int "event from" from_asid in
        let* to_asid = field "to" e in
        let* to_asid = as_int "event to" to_asid in
        Ok ((time, from_asid, to_asid) :: acc))
      (Ok []) events
  in
  let events = Array.of_list (List.rev events) in
  let* () = at_least "epoch_cycles" epoch_cycles in
  let* () = at_least "n_cpus" n_cpus in
  let header name =
    match Array.find_index (String.equal name) columns with
    | Some i -> Ok i
    | None -> Error (Printf.sprintf "timeline: no %S column" name)
  in
  let* e = header "epoch" in
  let* cpu = header "cpu" in
  let* _ = header "job" in
  let* _ = header "time" in
  let bad =
    Array.find_mapi
      (fun i r ->
        if r.(e) < 0 then Some (Printf.sprintf "timeline: row %d has epoch %d" i r.(e))
        else if r.(cpu) < 0 || r.(cpu) >= n_cpus then
          Some (Printf.sprintf "timeline: row %d has cpu %d (n_cpus %d)" i r.(cpu) n_cpus)
        else None)
      rows
  in
  match bad with
  | Some msg -> Error msg
  | None -> Ok { epoch_cycles; n_cpus; columns; rows; events }

let of_artifact json =
  match J.member "timeline" json with
  | None -> Error "artifact has no \"timeline\" section (run with --timeline)"
  | Some tl -> of_json tl

(* ------------------------------------------------------------------ *)
(* Series *)

let col t name =
  let found = ref None in
  Array.iteri (fun i c -> if c = name && !found = None then found := Some i) t.columns;
  !found

let col_exn t name =
  match col t name with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "Phases: timeline has no %S column" name)

let n_epochs t =
  let e = col_exn t "epoch" in
  Array.fold_left (fun m r -> max m (r.(e) + 1)) 0 t.rows

(** [series t ?job pred] is the dense per-epoch sum of every column
    matched by [pred] (over rows of [job] only, when given). *)
let series ?job t pred =
  let e = col_exn t "epoch" and jcol = col_exn t "job" in
  let sel = ref [] in
  Array.iteri (fun i c -> if pred c then sel := i :: !sel) t.columns;
  let sel = Array.of_list !sel in
  let out = Array.make (max 1 (n_epochs t)) 0.0 in
  Array.iter
    (fun r ->
      if match job with None -> true | Some j -> r.(jcol) = j then begin
        let s = ref 0 in
        Array.iter (fun i -> s := !s + r.(i)) sel;
        out.(r.(e)) <- out.(r.(e)) +. float_of_int !s
      end)
    t.rows;
  out

let has_prefix p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p

let miss_series ?job t = series ?job t (has_prefix "l2_miss.")

let conflict_series ?job t = series ?job t (has_prefix "conflict.color.")

let jobs t =
  let jcol = col_exn t "job" in
  let seen = Hashtbl.create 8 in
  Array.iter (fun r -> Hashtbl.replace seen r.(jcol) ()) t.rows;
  Hashtbl.fold (fun j () acc -> j :: acc) seen [] |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Change-point detection: windowed mean shift.  For each epoch
   boundary, compare the [window] epochs on either side; the score is
   the mean shift in units of the pooled in-window deviation (a small
   relative floor keeps near-flat noise from scoring).  Local maxima
   above the threshold, at least [window] apart, are phase
   transitions. *)

type change = { epoch : int; score : float; before : float; after : float }

let mean_var a lo n =
  let m = ref 0.0 in
  for i = lo to lo + n - 1 do
    m := !m +. a.(i)
  done;
  let m = !m /. float_of_int n in
  let v = ref 0.0 in
  for i = lo to lo + n - 1 do
    let d = a.(i) -. m in
    v := !v +. (d *. d)
  done;
  (m, !v /. float_of_int n)

let detect ?(window = 4) ?(threshold = 2.0) s =
  if window <= 0 then invalid_arg "Phases.detect: window must be positive";
  let n = Array.length s in
  if n < 2 * window then []
  else begin
    let candidates = ref [] in
    for i = window to n - window do
      let ml, vl = mean_var s (i - window) window in
      let mr, vr = mean_var s i window in
      let sd = sqrt ((vl +. vr) /. 2.0) in
      let floor_ = 1e-9 +. (0.02 *. ((abs_float ml +. abs_float mr) /. 2.0)) in
      let score = abs_float (mr -. ml) /. (sd +. floor_) in
      if score >= threshold then
        candidates := { epoch = i; score; before = ml; after = mr } :: !candidates
    done;
    (* greedy non-maximum suppression: strongest first, then drop
       anything within [window] of an accepted change *)
    let by_score = List.sort (fun a b -> compare b.score a.score) !candidates in
    let accepted =
      List.fold_left
        (fun acc c ->
          if List.exists (fun a -> abs (a.epoch - c.epoch) < window) acc then acc else c :: acc)
        [] by_score
    in
    List.sort (fun a b -> compare a.epoch b.epoch) accepted
  end

type segment = { seg_from : int; seg_to : int; seg_mean : float }

(** [segments s changes] splits [0, length s) at the change epochs and
    annotates each span with its mean level. *)
let segments s changes =
  let n = Array.length s in
  if n = 0 then []
  else begin
    let bounds = List.map (fun c -> c.epoch) changes @ [ n ] in
    let rec go lo = function
      | [] -> []
      | b :: rest ->
        if b <= lo then go lo rest
        else begin
          let m, _ = mean_var s lo (b - lo) in
          { seg_from = lo; seg_to = b - 1; seg_mean = m } :: go b rest
        end
    in
    go 0 bounds
  end

(* ------------------------------------------------------------------ *)
(* Rendering *)

let spark_width = 64

(* Downsample a series to at most [spark_width] buckets (sum within a
   bucket), so sparklines stay one line regardless of epoch count. *)
let bucketize s =
  let n = Array.length s in
  if n <= spark_width then s
  else
    Array.init spark_width (fun b ->
        let lo = b * n / spark_width and hi = ((b + 1) * n / spark_width) - 1 in
        let acc = ref 0.0 in
        for i = lo to max lo hi do
          acc := !acc +. s.(i)
        done;
        !acc)

let fmax a = Array.fold_left max 0.0 a

let spark_line buf label s =
  Buffer.add_string buf
    (Printf.sprintf "  %-18s %s  (peak %.0f/epoch)\n" label
       (Pcolor_util.Chart.sparkline (bucketize s))
       (fmax s))

let sum_rows t ?job ?(lo = 0) ?hi pred =
  let e = col_exn t "epoch" and jcol = col_exn t "job" in
  let hi = match hi with Some h -> h | None -> max_int in
  let sel = ref [] in
  Array.iteri (fun i c -> if pred c then sel := i :: !sel) t.columns;
  let sel = Array.of_list !sel in
  let acc = ref 0 in
  Array.iter
    (fun r ->
      if
        r.(e) >= lo
        && r.(e) <= hi
        && match job with None -> true | Some j -> r.(jcol) = j
      then Array.iter (fun i -> acc := !acc + r.(i)) sel)
    t.rows;
  !acc

let render t =
  let buf = Buffer.create 4096 in
  let n = n_epochs t in
  Buffer.add_string buf
    (Printf.sprintf "timeline: %d epochs x %d cycles, %d rows, %d cpus, %d context switches\n" n
       t.epoch_cycles (Array.length t.rows) t.n_cpus (Array.length t.events));
  let miss = miss_series t in
  let conflict = conflict_series t in
  let stall = series t (has_prefix "stall.") in
  spark_line buf "l2-miss" miss;
  spark_line buf "conflict-pressure" conflict;
  spark_line buf "mem-stall" stall;
  let describe label s =
    let changes = detect s in
    if changes <> [] then begin
      Buffer.add_string buf (Printf.sprintf "%s phases:\n" label);
      List.iter
        (fun seg ->
          Buffer.add_string buf
            (Printf.sprintf "  epochs %4d..%-4d  mean %12.1f/epoch\n" seg.seg_from seg.seg_to
               seg.seg_mean))
        (segments s changes);
      List.iter
        (fun c ->
          Buffer.add_string buf
            (Printf.sprintf "  transition @ epoch %d: %.1f -> %.1f (score %.1f)\n" c.epoch c.before
               c.after c.score))
        changes
    end
  in
  describe "miss-rate" miss;
  describe "conflict-pressure" conflict;
  (match jobs t with
  | [] | [ _ ] -> ()
  | js ->
    Buffer.add_string buf "per-job:\n";
    Buffer.add_string buf "  job    instructions       l2-miss      conflict  miss-rate timeline\n";
    List.iter
      (fun j ->
        let instr = sum_rows t ~job:j (( = ) "instructions") in
        let misses = sum_rows t ~job:j (has_prefix "l2_miss.") in
        let confl = sum_rows t ~job:j (( = ) "l2_miss.conflict") in
        Buffer.add_string buf
          (Printf.sprintf "  %3d  %14d  %12d  %12d  %s\n" j instr misses confl
             (Pcolor_util.Chart.sparkline (bucketize (miss_series ~job:j t)))))
      js);
  if Array.length t.events > 0 then begin
    Buffer.add_string buf "context switches:\n";
    let shown = min 12 (Array.length t.events) in
    for i = 0 to shown - 1 do
      let time, from_asid, to_asid = t.events.(i) in
      Buffer.add_string buf
        (Printf.sprintf "  @%-12d epoch %-5d job %d -> %d\n" time (time / t.epoch_cycles)
           from_asid to_asid)
    done;
    if shown < Array.length t.events then
      Buffer.add_string buf (Printf.sprintf "  ... %d more\n" (Array.length t.events - shown))
  end;
  Buffer.contents buf

(** [render_window t ~lo ~hi] explains one epoch range: aggregate
    counters, the per-class miss split, the per-job split and the
    hottest conflict colors inside [lo..hi]. *)
let render_window t ~lo ~hi =
  let n = n_epochs t in
  if lo < 0 || hi < lo then invalid_arg "Phases.render_window: bad epoch range";
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "epochs %d..%d of %d (%d cycles/epoch):\n" lo hi (max n (hi + 1))
       t.epoch_cycles);
  let v name = sum_rows t ~lo ~hi (( = ) name) in
  Buffer.add_string buf
    (Printf.sprintf "  instructions %d  l1_misses %d  l2_hits %d  tlb_misses %d  kernel %d\n"
       (v "instructions") (v "l1_misses") (v "l2_hits") (v "tlb_misses") (v "kernel_cycles"));
  Buffer.add_string buf "  l2 misses:\n";
  Array.iter
    (fun c ->
      if has_prefix "l2_miss." c then
        Buffer.add_string buf
          (Printf.sprintf "    %-16s %d\n"
             (String.sub c 8 (String.length c - 8))
             (v c)))
    t.columns;
  Buffer.add_string buf
    (Printf.sprintf "  memory stall cycles %d  bus cycles %d\n"
       (sum_rows t ~lo ~hi (has_prefix "stall."))
       (sum_rows t ~lo ~hi (has_prefix "bus.")));
  (match jobs t with
  | [] | [ _ ] -> ()
  | js ->
    Buffer.add_string buf "  per job:\n";
    List.iter
      (fun j ->
        Buffer.add_string buf
          (Printf.sprintf "    job %d: instructions %d  l2 misses %d  conflict %d\n" j
             (sum_rows t ~job:j ~lo ~hi (( = ) "instructions"))
             (sum_rows t ~job:j ~lo ~hi (has_prefix "l2_miss."))
             (sum_rows t ~job:j ~lo ~hi (( = ) "l2_miss.conflict"))))
      js);
  let colors =
    Array.to_list t.columns
    |> List.filter (has_prefix "conflict.color.")
    |> List.map (fun c -> (c, sum_rows t ~lo ~hi (( = ) c)))
    |> List.filter (fun (_, v) -> v > 0)
    |> List.sort (fun (_, a) (_, b) -> compare b a)
  in
  (match colors with
  | [] -> ()
  | _ ->
    Buffer.add_string buf "  hottest conflict colors:\n";
    List.iteri
      (fun i (c, v) ->
        if i < 8 then
          Buffer.add_string buf
            (Printf.sprintf "    %-20s %d\n"
               (String.sub c 15 (String.length c - 15))
               v))
      colors);
  Buffer.contents buf
