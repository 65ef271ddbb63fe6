(* The repo benchmark. One workload per run:

     perfbench --workload tables|sweep|serve --seed N --seconds S --trace 0|1
       --nproc P --commit C --tatsd PATH --golden PATH --workdir DIR

   perfbench/run.py builds this executable and passes the host arguments.
   With --trace 0 it measures the end-to-end metrics with tracing off;
   with --trace 1 it runs a fixed untraced pass and the same pass traced,
   and reports the per-layer metrics. Every output is checked; the last
   stdout line is the result object, preceded by a REPORT line with the
   host/config stamp, sample counts and the workload's detail. The exit
   code is non-zero when any check failed. *)

open Common

module type WORKLOAD = sig
  type ctx

  val setup : config -> ctx
  val teardown : ctx -> unit
  val measure : config -> ctx -> metric list * metric list * (string * Json.t) list
  val traced : config -> ctx -> (string * float) list * (string * Json.t) list
end

let workloads : (string * (module WORKLOAD)) list =
  [ ("tables", (module Tables)); ("sweep", (module Sweep)); ("serve", (module Serve)) ]

(* Set-up is measured this many times per run — the run's own set-up plus
   fresh child processes — and reported as the median. *)
let setups = 3

let usage () =
  prerr_endline
    "usage: perfbench --workload tables|sweep|serve --seed N --seconds S \
     --trace 0|1 --nproc P --commit C --tatsd PATH --golden PATH --workdir DIR \
     [--setup-only]";
  exit 2

let parse argv =
  let get k =
    let rec find = function
      | a :: v :: _ when a = k -> Some v
      | _ :: rest -> find rest
      | [] -> None
    in
    find (Array.to_list argv)
  in
  let req k = match get k with Some v -> v | None -> usage () in
  let num k conv = match conv (req k) with Some v -> v | None -> usage () in
  let cfg =
    {
      workload = req "--workload";
      seed = num "--seed" int_of_string_opt;
      seconds = num "--seconds" float_of_string_opt;
      trace = req "--trace" = "1";
      nproc = num "--nproc" int_of_string_opt;
      commit = req "--commit";
      tatsd = req "--tatsd";
      golden = req "--golden";
      workdir = req "--workdir";
    }
  in
  if cfg.nproc < 1 || cfg.seconds <= 0.0 then usage ();
  (cfg, Array.mem "--setup-only" argv)

(* One set-up in a fresh process: its wall time, or None when it failed. *)
let child_setup cfg k =
  let args =
    [|
      Sys.executable_name; "--workload"; cfg.workload;
      "--seed"; string_of_int cfg.seed;
      "--seconds"; Printf.sprintf "%.17g" cfg.seconds;
      "--trace"; "0";
      "--nproc"; string_of_int cfg.nproc;
      "--commit"; cfg.commit;
      "--tatsd"; cfg.tatsd;
      "--golden"; cfg.golden;
      "--workdir"; Filename.concat cfg.workdir (Printf.sprintf "setup-%d" k);
      "--setup-only";
    |]
  in
  let ic = Unix.open_process_args_in Sys.executable_name args in
  let lines = String.split_on_char '\n' (In_channel.input_all ic) in
  let status = Unix.close_process_in ic in
  let value = List.find_map (fun l -> Scanf.sscanf_opt l "SETUP %f" Fun.id) lines in
  match (status, value) with Unix.WEXITED 0, Some v -> Some v | _ -> None

let stamp cfg =
  Json.Obj
    [
      ("workload", str cfg.workload);
      ("seed", int cfg.seed);
      ("seconds", num cfg.seconds);
      ("trace", Json.Bool cfg.trace);
      ("nproc", int cfg.nproc);
      ("pool_jobs", int cfg.nproc);
      ("tatsd_jobs", if cfg.workload = "serve" then int cfg.nproc else Json.Null);
      ("ocaml", str Sys.ocaml_version);
      ("commit", str cfg.commit);
    ]

let print_metric m =
  Printf.printf "  %-34s %16.6g %-7s (n=%d)\n" m.name m.value m.unit_ m.samples

let finish cfg ~metrics ~report =
  let failed = tally.failed and attempted = max 1 tally.attempted in
  List.iter print_metric metrics;
  Printf.printf "  checks: %d failed of %d attempted\n" failed attempted;
  print_endline
    ("REPORT "
    ^ Json.to_string
        (Json.Obj
           ([ ("stamp", stamp cfg) ]
           @ [ ("metrics", Json.Obj (List.map (fun m -> (m.name, metric_json m)) metrics)) ]
           @ report)));
  let result =
    Json.Obj
      [
        ("correct", Json.Bool (failed = 0));
        ("attempted", int attempted);
        ("failed", int failed);
        ( "metrics",
          Json.Obj
            (List.map
               (fun m -> (m.name, Json.Obj [ ("value", num m.value); ("unit", str m.unit_) ]))
               metrics) );
      ]
  in
  print_endline (Json.to_string result);
  exit (if failed = 0 then 0 else 1)

let run (module W : WORKLOAD) cfg ~setup_only =
  Tats_util.Fsio.mkdir_p cfg.workdir;
  if setup_only then begin
    let ctx, s = time (fun () -> W.setup cfg) in
    W.teardown ctx;
    Printf.printf "SETUP %.17g\n" s;
    exit (if tally.failed = 0 then 0 else 1)
  end;
  Printf.printf "perfbench: workload %s, seed %d, %gs, trace %b, nproc %d\n%!"
    cfg.workload cfg.seed cfg.seconds cfg.trace cfg.nproc;
  if cfg.trace then begin
    let ctx = W.setup cfg in
    let values, report = W.traced cfg ctx in
    W.teardown ctx;
    let fail_ratio = float_of_int tally.failed /. float_of_int (max 1 tally.attempted) in
    finish cfg
      ~metrics:(Layers.complete (("fail_ratio", fail_ratio) :: values))
      ~report
  end
  else begin
    (* Fresh processes first, so no set-up overlaps the measured one. *)
    let children = List.init (setups - 1) (child_setup cfg) in
    List.iter (fun c -> check (c <> None) "set-up in a fresh process failed") children;
    let ctx, own = time (fun () -> W.setup cfg) in
    let e2e, named, extra = W.measure cfg ctx in
    W.teardown ctx;
    let setup_samples = Array.of_list (own :: List.filter_map Fun.id children) in
    let setup_s = metric ~samples:(Array.length setup_samples) "setup_s" "s" (median setup_samples) in
    finish cfg ~metrics:(setup_s :: e2e)
      ~report:
        (("named_metrics", Json.Obj (List.map (fun m -> (m.name, metric_json m)) named))
        :: ("setup_samples_s", Json.Arr (Array.to_list (Array.map num setup_samples)))
        :: extra)
  end

let () =
  let cfg, setup_only = parse Sys.argv in
  match List.assoc_opt cfg.workload workloads with
  | None -> usage ()
  | Some w -> (
      try run w cfg ~setup_only
      with Failure msg | Sys_error msg ->
        prerr_endline msg;
        exit 2)
