(* One experiment cell of the paper's evaluation grid and a memoized
   runner over cells.  The memo is touched only by the calling domain:
   pool tasks return reports, published after the pool joins, so no
   lock is needed. *)

module Config = Pcolor_memsim.Config
module Spec = Pcolor_workloads.Spec

type t = {
  bench : string;
  machine : string;
  n_cpus : int;
  scale : int;
  policy : Run.policy_choice;
  prefetch : bool;
}

let cfg c =
  match List.assoc_opt c.machine Config.models with
  | Some model -> Config.scale (model ~n_cpus:c.n_cpus ()) c.scale
  | None -> invalid_arg ("Cell.make: unknown machine model " ^ c.machine)

let make ?(prefetch = false) ~scale ~bench ~machine ~n_cpus ~policy () =
  let c = { bench; machine; n_cpus; scale; policy; prefetch } in
  ignore (Spec.find bench, cfg c);
  c

let key c =
  Printf.sprintf "%s/%s/%d/%s/%b" c.bench c.machine c.n_cpus (Run.policy_name c.policy) c.prefetch

let setup ?(obs = Pcolor_obs.Ctx.disabled) c =
  let d = Spec.find c.bench in
  {
    (Run.default_setup ~cfg:(cfg c)
       ~make_program:(fun () -> d.build ~scale:c.scale ())
       ~policy:c.policy)
    with
    prefetch = c.prefetch;
    obs;
  }

(* Estimated simulation cost, for start order only: work scales with
   the CPU count (each CPU runs its share of every nest) and with the
   data set (Table 1).  Units are arbitrary. *)
let cost c = float_of_int c.n_cpus *. (Spec.find c.bench).table1_mb

let runner ~obs ~progress ~jobs =
  let memo = Hashtbl.create 256 in
  let simulate c =
    let t0 = Unix.gettimeofday () in
    let report = (Run.run (setup ~obs:(obs ()) c)).report in
    progress c (Unix.gettimeofday () -. t0);
    report
  in
  fun cells ->
    let seen = Hashtbl.create 64 in
    let missing =
      List.filter
        (fun c ->
          let fresh = not (Hashtbl.mem memo c || Hashtbl.mem seen c) in
          if fresh then Hashtbl.add seen c ();
          fresh)
        cells
    in
    List.iter2 (Hashtbl.replace memo) missing
      (Pcolor_util.Pool.map_costliest_first ~jobs ~cost simulate missing);
    List.map (Hashtbl.find memo) cells
