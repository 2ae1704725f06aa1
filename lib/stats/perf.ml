(* Perf-ledger analysis.  See perf.mli for the contract. *)

module J = Pcolor_obs.Json
module Ledger = Pcolor_obs.Ledger
module Stat = Pcolor_obs.Stat

type metric = {
  name : string;
  unit_name : string;
  higher_better : bool;
  bound : float option;
}

type spec = { workloads : string list; metrics : metric list }

let str k v = Option.bind (J.member k v) J.to_string_opt

(* [all f xs] maps [f] over [xs], stopping at the first error. *)
let all f xs =
  List.fold_right
    (fun x acc -> Result.bind acc (fun tl -> Result.map (fun y -> y :: tl) (f x)))
    xs (Ok [])

let metric_of_json ~end_to_end v =
  match (str "name" v, str "unit" v, str "better" v) with
  | Some name, Some unit_name, Some (("higher" | "lower") as better) -> (
    let m = { name; unit_name; higher_better = better = "higher"; bound = None } in
    if not end_to_end then Ok m
    else
      match Option.bind (J.member "bound" v) J.to_float_opt with
      | Some b -> Ok { m with bound = Some b }
      | None -> Error (Printf.sprintf "end_to_end metric %s has no numeric \"bound\"" name))
  | _ -> Error "metric entry needs \"name\", \"unit\" and \"better\" (higher|lower)"

let spec_of_json v =
  let arr k = match J.member k v with Some (J.Arr xs) -> Some xs | _ -> None in
  match (arr "workloads", arr "end_to_end") with
  | Some ws, Some e2e ->
    Result.bind
      (all
         (fun w ->
           match str "name" w with Some n -> Ok n | None -> Error "workload entry needs \"name\"")
         ws)
      (fun workloads ->
        Result.bind (all (metric_of_json ~end_to_end:true) e2e) (fun e2e ->
            Result.map
              (fun layers -> { workloads; metrics = e2e @ layers })
              (all (metric_of_json ~end_to_end:false)
                 (Option.value ~default:[] (arr "per_layer")))))
  | _ -> Error "expected \"workloads\" and \"end_to_end\" arrays"

let sections spec =
  List.concat_map (fun w -> List.map (fun m -> (w ^ "/" ^ m.name, m)) spec.metrics) spec.workloads

let section_names spec = List.map fst (sections spec)

(* ---- perf ingest ---- *)

let ingest spec ~workload ~provenance v =
  if not (List.mem workload spec.workloads) then
    Error
      (Printf.sprintf "unknown workload %s (BENCHMARK.json lists: %s)" workload
         (String.concat ", " spec.workloads))
  else
    match v with
    | J.Obj _ -> (
      match (J.member "correct" v, J.member "metrics" v) with
      | Some (J.Bool false), _ ->
        let count k = Option.value ~default:0 (Option.bind (J.member k v) J.to_int_opt) in
        Error
          (Printf.sprintf "result reports correct: false (%d of %d experiments failed)"
             (count "failed") (count "attempted"))
      | Some (J.Bool true), Some (J.Obj (_ :: _ as metrics)) ->
        all
          (fun (name, m) ->
            match (Option.bind (J.member "value" m) J.to_float_opt, str "unit" m) with
            | Some value, Some unit_name ->
              let trials = [| value |] in
              Ok
                (Ledger.make ~section:(workload ^ "/" ^ name) ~unit_name
                   ~summary:(Stat.summarize trials) ~trials ~provenance ())
            | _ -> Error (Printf.sprintf "metric %s: expected {\"value\": number, \"unit\": string}" name))
          metrics
      | Some (J.Bool true), _ -> Error "result has no \"metrics\" object"
      | _ -> Error "result has no boolean \"correct\" field")
    | _ -> Error "result is not a JSON object"

(* ---- perf check ---- *)

type verdict = {
  section : string;
  metric : metric;
  base : float;
  fresh : float;
  n_base : int;
  n_fresh : int;
  worse_by : float;
  ok : bool;
}

(* Relative worsening of [fresh] against [base] in the metric's
   direction: 0.3 = 30% worse, negative = better.  A zero base makes
   any worsening infinite. *)
let worse_by ~higher_better ~base ~fresh =
  let d = if higher_better then base -. fresh else fresh -. base in
  if d = 0.0 then 0.0 else d /. Float.abs base

let check spec records ~base ~fresh =
  let at stamp = List.filter (fun (r : Ledger.record) -> r.Ledger.git = stamp) records in
  match (at base, at fresh) with
  | [], _ -> Error (Printf.sprintf "no ledger record at stamp %s" base)
  | _, [] -> Error (Printf.sprintf "no ledger record at stamp %s" fresh)
  | b, f -> (
    let samples rs section =
      List.filter_map
        (fun (r : Ledger.record) -> if r.Ledger.section = section then Some r.Ledger.median else None)
        rs
      |> Array.of_list
    in
    let verdicts =
      List.filter_map
        (fun (section, metric) ->
          match (samples b section, samples f section) with
          | [||], _ | _, [||] -> None
          | bs, fs ->
            let base = Stat.median bs and fresh = Stat.median fs in
            let worse_by = worse_by ~higher_better:metric.higher_better ~base ~fresh in
            let ok = match metric.bound with None -> true | Some bound -> worse_by <= bound in
            Some
              {
                section;
                metric;
                base;
                fresh;
                n_base = Array.length bs;
                n_fresh = Array.length fs;
                worse_by;
                ok;
              })
        (sections spec)
    in
    match verdicts with
    | [] -> Error (Printf.sprintf "no BENCHMARK.json section recorded at both %s and %s" base fresh)
    | vs -> Ok vs)

let failures verdicts = List.filter_map (fun v -> if v.ok then None else Some v.section) verdicts

let render_check ~base ~fresh verdicts =
  let b = Buffer.create 1024 in
  Printf.bprintf b "perf check: %s against %s (median of each stamp's samples)\n" fresh base;
  List.iter
    (fun v ->
      Printf.bprintf b "  %-32s %-8s base %-10.4g (n=%d)  fresh %-10.4g (n=%d)  %-16s  %s\n"
        v.section v.metric.unit_name v.base v.n_base v.fresh v.n_fresh
        (if v.worse_by = 0.0 then "unchanged"
         else
           Printf.sprintf "%s %5.1f%%"
             (if v.worse_by > 0.0 then "worse by " else "better by")
             (100.0 *. Float.abs v.worse_by))
        (match v.metric.bound with
        | None -> "per-layer, never fails"
        | Some bound ->
          Printf.sprintf "bound %.0f%%  %s" (100.0 *. bound) (if v.ok then "PASS" else "FAIL")))
    verdicts;
  Buffer.contents b

(* ---- perf history ---- *)

let sections_of records =
  List.sort_uniq compare (List.map (fun (r : Ledger.record) -> r.Ledger.section) records)

let render_history ?section ?known records ~skipped =
  let all = records in
  let records =
    match section with
    | None -> records
    | Some s -> List.filter (fun (r : Ledger.record) -> r.Ledger.section = s) records
  in
  (* [known] filters display to the sections BENCHMARK.json declares;
     stale records (retired or renamed sections) are summarized instead
     of rendered, never silently dropped *)
  let records, unknown =
    match known with
    | None -> (records, [])
    | Some ks ->
        List.partition (fun (r : Ledger.record) -> List.mem r.Ledger.section ks) records
  in
  (* group by section, preserving first-seen order; within a section
     the ledger's file order is time order *)
  let order = ref [] in
  let by_sect = Hashtbl.create 16 in
  List.iter
    (fun (r : Ledger.record) ->
      let s = r.Ledger.section in
      if not (Hashtbl.mem by_sect s) then begin
        Hashtbl.add by_sect s (ref []);
        order := s :: !order
      end;
      let cell = Hashtbl.find by_sect s in
      cell := r :: !cell)
    records;
  let b = Buffer.create 1024 in
  if all = [] then Buffer.add_string b "perf history: ledger is empty\n"
  else if records = [] then
    (* distinguish "nothing recorded" from "nothing left after the
       filter": name what the ledger actually holds *)
    Buffer.add_string b
      (Printf.sprintf "perf history: no records for %s (ledger has %d record(s) in: %s)\n"
         (match section with
         | Some s -> Printf.sprintf "section %s" s
         | None -> "any current bench section")
         (List.length all)
         (String.concat ", " (sections_of all)))
  else begin
    Buffer.add_string b "perf history (ledger order = time order)\n";
    let width = List.fold_left (fun w s -> max w (String.length s)) 16 !order in
    List.iter
      (fun s ->
        let rs = List.rev !(Hashtbl.find by_sect s) in
        let medians = Array.of_list (List.map (fun (r : Ledger.record) -> r.Ledger.median) rs) in
        let last = List.nth rs (List.length rs - 1) in
        (* an ingested record holds one sample, so its own MAD is 0: the
           spread is across the newest stamp's records *)
        let newest =
          Stat.summarize
            (Array.of_list
               (List.filter_map
                  (fun (r : Ledger.record) ->
                    if r.Ledger.git = last.Ledger.git then Some r.Ledger.median else None)
                  rs))
        in
        Buffer.add_string b
          (Printf.sprintf "  %-*s %s  n=%d  last %.4g ± %.2g %s (git %s, %d record%s%s)\n" width s
             (Pcolor_util.Chart.sparkline medians)
             (Array.length medians) newest.Stat.median newest.Stat.mad last.Ledger.unit_name
             last.Ledger.git newest.Stat.n
             (if newest.Stat.n = 1 then "" else "s")
             (if last.Ledger.note = "" then "" else ", " ^ last.Ledger.note)))
      (List.rev !order)
  end;
  if unknown <> [] then
    Buffer.add_string b
      (Printf.sprintf
         "  (skipped %d record(s) from section(s) not in the current bench set: %s — --all shows them)\n"
         (List.length unknown)
         (String.concat ", " (sections_of unknown)));
  if skipped > 0 then
    Buffer.add_string b
      (Printf.sprintf "  (%d corrupt ledger line%s skipped)\n" skipped
         (if skipped = 1 then "" else "s"));
  Buffer.contents b
