(* Workers claim positions of the start order (costliest first, list
   order among equals) from one [Atomic] counter; the calling domain is
   one of the workers.  A failing
   task does not stop the others: its exception is kept (first one wins)
   and re-raised once every worker domain has been joined. *)

let default_jobs () =
  match Sys.getenv_opt "PCOLOR_JOBS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> n
    | _ ->
      failwith
        (Printf.sprintf
           "PCOLOR_JOBS=%S is not a positive integer (use PCOLOR_JOBS=N with N >= 1, e.g. \
            PCOLOR_JOBS=1 for deterministic sequential runs)"
           s))
  | None -> Domain.recommended_domain_count ()

(* Set on the calling domain while it works beside spawned workers. *)
let sharing = Domain.DLS.new_key (fun () -> ref false)

let parallel () = !(Domain.DLS.get sharing)

let map_costliest_first ~jobs ~cost f xs =
  let input = Array.of_list xs in
  let n = Array.length input in
  let order =
    Array.of_list
      (List.stable_sort
         (fun a b -> Float.compare (cost input.(b)) (cost input.(a)))
         (List.init n Fun.id))
  in
  let out = Array.make n None in
  let task k = out.(order.(k)) <- Some (f input.(order.(k))) in
  if jobs <= 1 then Array.iteri (fun k _ -> task k) order
  else begin
    let next = Atomic.make 0 in
    let failure = Atomic.make None in
    let rec worker () =
      let k = Atomic.fetch_and_add next 1 in
      if k < n then begin
        (try task k with e -> ignore (Atomic.compare_and_set failure None (Some e)));
        worker ()
      end
    in
    let helpers = List.init (max 0 (min jobs n - 1)) (fun _ -> Domain.spawn worker) in
    let flag = Domain.DLS.get sharing in
    let was = !flag in
    flag := was || helpers <> [];
    worker ();
    flag := was;
    List.iter Domain.join helpers;
    Option.iter raise (Atomic.get failure)
  end;
  Array.to_list (Array.map Option.get out)

let map ~jobs f xs = map_costliest_first ~jobs ~cost:(fun _ -> 0.0) f xs
