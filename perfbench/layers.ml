(* Per-layer attribution of a traced pass: span self time (a span's
   duration minus the part its child spans cover, per recording domain)
   and the registry counters the library already keeps, read back through
   their public interfaces — [Trace.spans] and [Metricsreg.to_json]
   in-process, the [tatsd --trace] / [--metrics] files for the server. *)

open Common
module Trace = Tats_util.Trace

(* Every per-layer metric, in BENCHMARK.json order. Each workload prints
   all of them; a metric of a layer the workload does not reach is 0. *)
let names =
  [
    ("experiments.table1_s", "s");
    ("experiments.table2_s", "s");
    ("experiments.table3_s", "s");
    ("flow.platform_s", "s");
    ("flow.cosynthesis_s", "s");
    ("flow.iterations", "count");
    ("ga.run_self_s", "s");
    ("ga.evaluations", "count");
    ("sched.step_self_s", "s");
    ("sched.adaptive_attempts", "count");
    ("sched.steps", "count");
    ("sched.candidates", "count");
    ("inquiry.solve_self_s", "s");
    ("inquiry.inquiries", "count");
    ("inquiry.hit_ratio", "ratio");
    ("inquiry.fp_iterations", "count");
    ("inquiry.fp_iterations_per_solve", "count");
    ("hotspot.engines_built", "count");
    ("lu.factorizations", "count");
    ("lu.factor_flops", "flop");
    ("lu.solve_flops", "flop");
    ("campaign.store_s", "s");
    ("campaign.manifest_s", "s");
    ("campaign.cells_computed", "count");
    ("campaign.cells_reused", "count");
    ("campaign.artifact_bytes", "B");
    ("pool.busy_ratio", "ratio");
    ("pool.tasks", "count");
    ("pool.steals", "count");
    ("pool.parks", "count");
    ("serve.server_p99_ms", "ms");
    ("serve.transport_p99_ms", "ms");
    ("serve.execute_self_s", "s");
    ("serve.queue_depth_max", "count");
    ("serve.rejected_overload", "count");
    ("serve.rejected_deadline", "count");
    ("serve.p50_ms", "ms");
    ("serve.p99_ms", "ms");
    ("serve.schedule_p50_ms", "ms");
    ("engines.hit_rate", "ratio");
    ("gc.minor_mwords", "Mwords");
    ("gc.major_collections", "count");
    ("fail_ratio", "ratio");
    ("trace.overhead_ratio", "ratio");
  ]

(* ------------------------------------------------------------------ *)
(* Span self time *)

type agg = { mutable count : int; mutable total : float; mutable self : float }

let self_times (spans : Trace.span list) =
  let aggs = Hashtbl.create 32 in
  let agg name =
    match Hashtbl.find_opt aggs name with
    | Some a -> a
    | None ->
        let a = { count = 0; total = 0.0; self = 0.0 } in
        Hashtbl.add aggs name a;
        a
  in
  let by_tid = Hashtbl.create 8 in
  List.iter
    (fun (s : Trace.span) ->
      let l = Option.value ~default:[] (Hashtbl.find_opt by_tid s.tid) in
      Hashtbl.replace by_tid s.tid (s :: l))
    spans;
  let close ((s : Trace.span), _, covered) =
    let a = agg s.name in
    a.count <- a.count + 1;
    a.total <- a.total +. s.dur;
    a.self <- a.self +. Float.max 0.0 (s.dur -. covered)
  in
  Hashtbl.iter
    (fun _ l ->
      let arr = Array.of_list l in
      (* Parents sort before the children they contain. *)
      Array.sort
        (fun (a : Trace.span) (b : Trace.span) ->
          compare (a.ts, -.a.dur) (b.ts, -.b.dur))
        arr;
      let stack = ref [] in
      Array.iter
        (fun (s : Trace.span) ->
          let rec unwind () =
            match !stack with
            | ((_, e, _) as frame) :: rest when e <= s.ts ->
                close frame;
                stack := rest;
                unwind ()
            | _ -> ()
          in
          unwind ();
          let s_end = s.ts +. s.dur in
          (match !stack with
          | (p, e, c) :: rest -> stack := (p, e, c +. (Float.min e s_end -. s.ts)) :: rest
          | [] -> ());
          stack := (s, s_end, 0.0) :: !stack)
        arr;
      List.iter close !stack)
    by_tid;
  aggs

let total aggs name =
  match Hashtbl.find_opt aggs name with Some a -> a.total | None -> 0.0

let self aggs name =
  match Hashtbl.find_opt aggs name with Some a -> a.self | None -> 0.0

(* Sum of self time over every span of a name prefix ("ga." = the GA). *)
let self_prefix aggs prefix =
  Hashtbl.fold
    (fun name a acc -> if String.starts_with ~prefix name then acc +. a.self else acc)
    aggs 0.0

(* The module a span name belongs to — the layer list of the benchmark. *)
let layer_of name =
  match String.index_opt name '.' with
  | None -> name
  | Some i -> (
      match String.sub name 0 i with
      | "experiments" -> "core"
      | "flow" -> "cosynth"
      | "ga" | "sa" -> "floorplan"
      | "sched" | "online" | "dvs" | "dtm" -> "sched"
      | "inquiry" | "hotspot" | "steady" | "transient" -> "thermal"
      | "lu" | "cg" -> "linalg"
      | "pool" -> "util"
      | p -> p)

let spans_json aggs =
  let rows =
    Hashtbl.fold (fun name a acc -> (name, a) :: acc) aggs []
    |> List.sort compare
  in
  let by_layer = Hashtbl.create 16 in
  List.iter
    (fun (name, a) ->
      let l = layer_of name in
      Hashtbl.replace by_layer l
        (a.self +. Option.value ~default:0.0 (Hashtbl.find_opt by_layer l)))
    rows;
  Json.Obj
    [
      ( "spans",
        Json.Obj
          (List.map
             (fun (name, a) ->
               ( name,
                 Json.Obj
                   [
                     ("count", int a.count);
                     ("total_s", num a.total);
                     ("self_s", num a.self);
                   ] ))
             rows) );
      ( "layer_self_s",
        Json.Obj
          (Hashtbl.fold (fun l v acc -> (l, num v) :: acc) by_layer []
          |> List.sort compare) );
    ]

(* The string-valued arguments of a trace event. *)
let string_args ev =
  match Json.mem "args" ev with
  | Some (Json.Obj kvs) ->
      List.filter_map
        (fun (k, v) -> Option.map (fun s -> (k, Trace.Str s)) (Json.str v))
        kvs
  | _ -> []

(* Spans of a Chrome trace_event file written by [Trace.export_chrome]. *)
let spans_of_chrome path : Trace.span list =
  match Option.map Json.of_string (Tats_util.Fsio.read_file path) with
  | Some (Ok (Json.Arr events)) ->
      List.filter_map
        (fun ev ->
          match (Option.bind (Json.mem "name" ev) Json.str, get_num "ts" ev, get_num "dur" ev) with
          | Some name, Some ts, Some dur ->
              Some
                {
                  Trace.name;
                  ts = ts /. 1e6;
                  dur = dur /. 1e6;
                  tid = int_of_float (get_num0 "tid" ev);
                  args = string_args ev;
                }
          | _ -> None)
        events
  | _ -> failwith ("perfbench: unreadable trace " ^ path)

(* ------------------------------------------------------------------ *)
(* Registry counters *)

(* [Metricsreg.to_json]'s shape: {"counters": {...}, "gauges": {...},
   "histograms": {name: {count, sum, min, max, p50, p95, p99}}}. *)
let counter reg name =
  Option.fold ~none:0.0 ~some:(get_num0 name) (Json.mem "counters" reg)

let histogram reg name key =
  Option.bind (Json.mem "histograms" reg) (Json.mem name)
  |> Option.fold ~none:nan ~some:(get_num0 key)

(* [reg] with the counters of [base] subtracted: the counts of what
   happened after [base] was taken. *)
let sub_counters reg base =
  match Json.mem "counters" reg with
  | Some (Json.Obj kvs) ->
      Json.Obj
        [
          ( "counters",
            Json.Obj
              (List.map
                 (fun (k, v) ->
                   (k, num (Option.value ~default:0.0 (Json.num v) -. counter base k)))
                 kvs) );
        ]
  | _ -> reg

let registry_of_file path =
  match Option.map Json.of_string (Tats_util.Fsio.read_file path) with
  | Some (Ok j) -> j
  | _ -> failwith ("perfbench: unreadable metrics " ^ path)

let registry () =
  match Json.of_string (Tats_util.Metricsreg.to_json ()) with
  | Ok j -> j
  | Error e -> failwith ("perfbench: registry JSON: " ^ e)

(* The metrics every workload derives the same way from spans and
   counters; workload-specific ones are added by the caller. *)
let common aggs reg =
  let c = counter reg in
  let inquiries = c "inquiry.inquiries" and hits = c "inquiry.cache_hits" in
  let solves = inquiries -. hits in
  [
    ("experiments.table1_s", total aggs "experiments.table1");
    ("experiments.table2_s", total aggs "experiments.table2");
    ("experiments.table3_s", total aggs "experiments.table3");
    ("flow.platform_s", total aggs "flow.platform");
    ("flow.cosynthesis_s", total aggs "flow.cosynthesis");
    ("flow.iterations", c "flow.iterations");
    ("ga.run_self_s", self_prefix aggs "ga.");
    ("ga.evaluations", c "ga.evaluations");
    ("sched.step_self_s", self aggs "sched.step");
    ("sched.adaptive_attempts", c "sched.adaptive_attempts");
    ("sched.steps", c "sched.steps");
    ("sched.candidates", c "sched.candidates");
    ("inquiry.solve_self_s", self aggs "inquiry.solve");
    ("inquiry.inquiries", inquiries);
    ("inquiry.hit_ratio", if inquiries > 0.0 then hits /. inquiries else 0.0);
    ("inquiry.fp_iterations", c "inquiry.fp_iterations");
    ( "inquiry.fp_iterations_per_solve",
      if solves > 0.0 then c "inquiry.fp_iterations" /. solves else 0.0 );
    ("hotspot.engines_built", c "hotspot.engines_built");
    ("lu.factorizations", c "lu.factorizations");
    ("lu.factor_flops", c "lu.factor_flops");
    ("lu.solve_flops", c "lu.solve_flops");
  ]

(* The in-process pool's counters over a pass of [wall] seconds. *)
let pool (ps : Tats_util.Pool.stats) ~wall =
  [
    ( "pool.busy_ratio",
      Array.fold_left ( +. ) 0.0 ps.busy /. (float_of_int ps.jobs *. wall) );
    ("pool.tasks", float_of_int ps.tasks);
    ("pool.steals", float_of_int ps.steals);
    ("pool.parks", float_of_int ps.parks);
  ]

(* The per-layer result: every name of [names], overridden by [values]. *)
let complete values =
  List.map
    (fun (name, unit_) ->
      metric name unit_ (Option.value ~default:0.0 (List.assoc_opt name values)))
    names
