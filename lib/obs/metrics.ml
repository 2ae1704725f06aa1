(** Named-metric registry.  See the interface for the concurrency and
    determinism contract: registration locks, cell updates never do. *)

type counter = int Atomic.t

type gauge = int Atomic.t

type histogram = {
  bounds : int array; (* strictly increasing upper bounds *)
  counts : int array; (* length = Array.length bounds + 1 (overflow last) *)
  mutable sum : int;
  mutable count : int;
}

type cell = Counter_cell of counter | Gauge_cell of gauge | Histogram_cell of histogram

type t = { mutex : Mutex.t; cells : (string, cell) Hashtbl.t }

type value =
  | Counter of int
  | Gauge of int
  | Histogram of { bounds : int array; counts : int array; sum : int; count : int }

type snapshot = (string * value) list

let create () = { mutex = Mutex.create (); cells = Hashtbl.create 64 }

let register t name make match_existing =
  Mutex.protect t.mutex (fun () ->
      match Hashtbl.find_opt t.cells name with
      | Some cell -> (
        match match_existing cell with
        | Some v -> v
        | None -> invalid_arg (Printf.sprintf "Metrics: %s already registered with another kind" name))
      | None ->
        let v, cell = make () in
        Hashtbl.add t.cells name cell;
        v)

let counter t name =
  register t name
    (fun () ->
      let c = Atomic.make 0 in
      (c, Counter_cell c))
    (function Counter_cell c -> Some c | _ -> None)

let gauge t name =
  register t name
    (fun () ->
      let g = Atomic.make 0 in
      (g, Gauge_cell g))
    (function Gauge_cell g -> Some g | _ -> None)

let check_bounds bounds =
  if Array.length bounds = 0 then invalid_arg "Metrics.histogram: empty bounds";
  Array.iteri
    (fun i b -> if i > 0 && bounds.(i - 1) >= b then invalid_arg "Metrics.histogram: bounds must be strictly increasing")
    bounds

let histogram t name ~bounds =
  check_bounds bounds;
  register t name
    (fun () ->
      let h = { bounds = Array.copy bounds; counts = Array.make (Array.length bounds + 1) 0; sum = 0; count = 0 } in
      (h, Histogram_cell h))
    (function
      | Histogram_cell h when h.bounds = bounds -> Some h
      | Histogram_cell _ -> None
      | _ -> None)

let incr c = ignore (Atomic.fetch_and_add c 1)

let add c n = ignore (Atomic.fetch_and_add c n)

let set g v = Atomic.set g v

(* First bucket whose bound admits v; the linear scan beats binary
   search at the handful of buckets the simulator uses. *)
let observe h v =
  let n = Array.length h.bounds in
  let i = ref 0 in
  while !i < n && v > h.bounds.(!i) do
    i := !i + 1
  done;
  h.counts.(!i) <- h.counts.(!i) + 1;
  h.sum <- h.sum + v;
  h.count <- h.count + 1

let read = function
  | Counter_cell c -> Counter (Atomic.get c)
  | Gauge_cell g -> Gauge (Atomic.get g)
  | Histogram_cell h ->
    Histogram { bounds = Array.copy h.bounds; counts = Array.copy h.counts; sum = h.sum; count = h.count }

let snapshot t =
  Mutex.protect t.mutex (fun () ->
      Hashtbl.fold (fun name cell acc -> (name, read cell) :: acc) t.cells [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let merge_value name a b =
  match (a, b) with
  | Counter x, Counter y -> Counter (x + y)
  | Gauge x, Gauge y -> Gauge (x + y)
  | Histogram x, Histogram y when x.bounds = y.bounds ->
    Histogram
      {
        bounds = x.bounds;
        counts = Array.map2 ( + ) x.counts y.counts;
        sum = x.sum + y.sum;
        count = x.count + y.count;
      }
  | _ -> invalid_arg (Printf.sprintf "Metrics.merge: %s has mismatched kinds or bounds" name)

let merge snaps =
  let table = Hashtbl.create 64 in
  List.iter
    (List.iter (fun (name, v) ->
         match Hashtbl.find_opt table name with
         | None -> Hashtbl.add table name v
         | Some prev -> Hashtbl.replace table name (merge_value name prev v)))
    snaps;
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let to_json snap =
  Json.Obj
    (List.map
       (fun (name, v) ->
         ( name,
           match v with
           | Counter n -> Json.Obj [ ("type", Json.Str "counter"); ("value", Json.Int n) ]
           | Gauge n -> Json.Obj [ ("type", Json.Str "gauge"); ("value", Json.Int n) ]
           | Histogram { bounds; counts; sum; count } ->
             Json.Obj
               [
                 ("type", Json.Str "histogram");
                 ("bounds", Json.Arr (Array.to_list (Array.map (fun b -> Json.Int b) bounds)));
                 ("counts", Json.Arr (Array.to_list (Array.map (fun c -> Json.Int c) counts)));
                 ("sum", Json.Int sum);
                 ("count", Json.Int count);
               ] ))
       snap)
