type t = {
  metrics : Metrics.t option;
  trace : Trace.buffer option;
  attrib : Attrib.t option;
  sampler : Sampler.t option;
  prof : Prof.t option;
  sample : bool;
}

let disabled =
  {
    metrics = None;
    trace = None;
    attrib = None;
    sampler = None;
    prof = None;
    sample = false;
  }

let sample_from_env () =
  match Sys.getenv_opt "PCOLOR_OBS_SAMPLE" with
  | Some ("1" | "true" | "on" | "yes") -> true
  | _ -> false

let create ?metrics ?trace ?attrib ?sampler ?prof ?sample () =
  let sample = match sample with Some s -> s | None -> sample_from_env () in
  { metrics; trace; attrib; sampler; prof; sample }

let metrics t = t.metrics

let trace t = t.trace

let attrib t = t.attrib

let sampler t = t.sampler

let prof t = t.prof

let flush t = Option.iter Trace.flush t.trace
