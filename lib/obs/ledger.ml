(* Append-only JSONL perf ledger.  See ledger.mli for the contract. *)

type record = {
  section : string;
  unit_name : string;
  median : float;
  mad : float;
  ci_lo : float;
  ci_hi : float;
  trials : float array;
  git : string;
  timestamp : string;
  hostname : string;
  scale : int;
  jobs : int;
  note : string;
}

let make ~section ~unit_name ~summary ~trials ~provenance ?(note = "") () =
  let open Stat in
  let p : Provenance.t = provenance in
  {
    section;
    unit_name;
    median = summary.median;
    mad = summary.mad;
    ci_lo = summary.ci_lo;
    ci_hi = summary.ci_hi;
    trials;
    git = Option.value ~default:"unknown" p.git;
    timestamp = p.timestamp;
    hostname = p.hostname;
    scale = Option.value ~default:0 p.scale;
    jobs = Option.value ~default:0 p.jobs;
    note;
  }

let to_json r =
  let base =
    [
      ("section", Json.Str r.section);
      ("unit", Json.Str r.unit_name);
      ("median", Json.Float r.median);
      ("mad", Json.Float r.mad);
      ("ci_lo", Json.Float r.ci_lo);
      ("ci_hi", Json.Float r.ci_hi);
      ( "trials",
        Json.Arr (Array.to_list (Array.map (fun x -> Json.Float x) r.trials))
      );
      ("git", Json.Str r.git);
      ("timestamp", Json.Str r.timestamp);
      ("hostname", Json.Str r.hostname);
      ("scale", Json.Int r.scale);
      ("jobs", Json.Int r.jobs);
    ]
  in
  Json.Obj (if r.note = "" then base else base @ [ ("note", Json.Str r.note) ])

let of_json v =
  match v with
  | Json.Obj _ -> (
      let field k conv d =
        Option.value ~default:d (Option.bind (Json.member k v) conv)
      in
      let str k d = field k Json.to_string_opt d in
      let num k d = field k Json.to_float_opt d in
      let int k d = field k Json.to_int_opt d in
      match
        ( Option.bind (Json.member "section" v) Json.to_string_opt,
          Option.bind (Json.member "median" v) Json.to_float_opt )
      with
      | None, _ -> Error "ledger record: missing \"section\""
      | _, None -> Error "ledger record: missing \"median\""
      | Some section, Some median ->
          let trials =
            match Json.member "trials" v with
            | Some (Json.Arr xs) ->
                xs |> List.filter_map Json.to_float_opt |> Array.of_list
            | _ -> [||]
          in
          Ok
            {
              section;
              unit_name = str "unit" "value";
              median;
              mad = num "mad" 0.0;
              ci_lo = num "ci_lo" median;
              ci_hi = num "ci_hi" median;
              trials;
              git = str "git" "unknown";
              timestamp = str "timestamp" "";
              hostname = str "hostname" "";
              scale = int "scale" 0;
              jobs = int "jobs" 0;
              note = str "note" "";
            })
  | _ -> Error "ledger record: expected an object"

let append ~path records =
  let oc =
    open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644 path
  in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun r ->
          output_string oc (Json.to_string (to_json r));
          output_char oc '\n')
        records)

let load ~path =
  if not (Sys.file_exists path) then ([], 0)
  else begin
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let records = ref [] in
        let skipped = ref 0 in
        (try
           while true do
             let line = input_line ic in
             if String.trim line <> "" then
               match Json.parse line with
               | Error _ -> incr skipped
               | Ok v -> (
                   match of_json v with
                   | Error _ -> incr skipped
                   | Ok r -> records := r :: !records)
           done
         with End_of_file -> ());
        (List.rev !records, !skipped))
  end
