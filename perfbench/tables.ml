(* Workload [tables]: regenerate the paper's Tables 1-3 through
   [Experiments.table1/2/3] on a pool of nproc domains and byte-compare
   the rendered report with test/goldens/tables.golden. Fixed paper
   inputs, so the seed is not used. The only workload with GA
   floorplanning; Tables 2 and 3 are 8 coarse pool tasks each, so their
   slowest cell (Bm4 co-synthesis, thermal) sets their batch time. *)

open Common
module E = Core.Experiments
module Report = Core.Report
module Pool = Tats_util.Pool
module Trace = Tats_util.Trace

type ctx = { pool : Pool.t; golden : string }

(* 16 Table 1 tasks x (co-synthesis + platform) + 8 + 8 flow runs. *)
let cells = 48

type regen = { wall : float; t1 : float; t2 : float; t3 : float }

let regenerate ctx =
  let call name f = time (fun () -> Trace.with_span ("experiments." ^ name) f) in
  let t0 = now () in
  let table1, t1 = call "table1" (fun () -> E.table1 ~pool:ctx.pool ()) in
  let table2, t2 = call "table2" (fun () -> E.table2 ~pool:ctx.pool ()) in
  let table3, t3 = call "table3" (fun () -> E.table3 ~pool:ctx.pool ()) in
  let wall = now () -. t0 in
  let rendered =
    String.concat "\n"
      [
        Report.table1 table1;
        Report.table2 table2;
        Report.table3 table3;
        Report.shape_checks (E.shape_checks ~table1 ~table2 ~table3);
      ]
  in
  check (rendered = ctx.golden) "tables: rendered report differs from tables.golden";
  { wall; t1; t2; t3 }

let setup (cfg : config) =
  let golden =
    match Tats_util.Fsio.read_file cfg.golden with
    | Some s -> s
    | None -> failwith ("perfbench: cannot read " ^ cfg.golden)
  in
  let ctx = { pool = Pool.create ~jobs:cfg.nproc (); golden } in
  (* The first regeneration pays every lazy initialisation. *)
  ignore (regenerate ctx : regen);
  ctx

let teardown ctx = Pool.shutdown ctx.pool

let measure (cfg : config) ctx =
  let runs = ref [] in
  let n = repeat_for cfg.seconds (fun _ -> runs := regenerate ctx :: !runs) in
  let col f = Array.of_list (List.map f !runs) in
  let per_s = col (fun r -> float_of_int cells /. r.wall) in
  let ms f = median (col f) *. 1e3 in
  let e2e =
    [
      metric "peak_rss_mb" "MiB" (peak_rss_mb ());
      metric ~samples:n "throughput_per_s" "1/s" (median per_s);
      metric ~samples:n "latency_ms" "ms" (ms (fun r -> r.t2));
    ]
  in
  let named =
    [
      metric ~samples:n "tables_cells_per_s" "1/s" (median per_s);
      metric ~samples:n "regeneration_ms" "ms" (ms (fun r -> r.wall));
      metric ~samples:n "table1_ms" "ms" (ms (fun r -> r.t1));
      metric ~samples:n "table2_ms" "ms" (ms (fun r -> r.t2));
      metric ~samples:n "table3_ms" "ms" (ms (fun r -> r.t3));
    ]
  in
  (e2e, named, [])

(* Two untraced then two traced regenerations; the traced pair feeds the
   per-layer numbers, the untraced pair the overhead and GC figures. *)
let traced _cfg ctx =
  let passes = 2 in
  let gc0 = gc_mark () in
  let untraced = List.init passes (fun _ -> (regenerate ctx).wall) in
  let gc1 = gc_mark () in
  Tats_util.Metricsreg.reset ();
  Pool.reset_stats ctx.pool;
  Trace.start ();
  let traced = List.init passes (fun _ -> (regenerate ctx).wall) in
  Trace.stop ();
  let aggs = Layers.self_times (Trace.spans ()) in
  let reg = Layers.registry () in
  Trace.reset ();
  let traced_wall = List.fold_left ( +. ) 0.0 traced in
  let untraced_wall = List.fold_left ( +. ) 0.0 untraced in
  let values =
    Layers.common aggs reg
    @ Layers.pool (Pool.stats ctx.pool) ~wall:traced_wall
    @ [
        ("trace.overhead_ratio", (traced_wall /. untraced_wall) -. 1.0);
      ]
    @ List.map (fun m -> (m.name, m.value)) (gc_metrics gc0 gc1)
  in
  let overhead =
    Json.Obj
      [
        ("metric", str "regeneration_ms");
        ("untraced", num (untraced_wall /. float_of_int passes *. 1e3));
        ("traced", num (traced_wall /. float_of_int passes *. 1e3));
        ( "traced_minus_untraced",
          num ((traced_wall -. untraced_wall) /. float_of_int passes *. 1e3) );
        ("regenerations_each", int passes);
      ]
  in
  (values, [ ("trace_overhead", overhead); ("layers", Layers.spans_json aggs) ])
