(* Workload [sweep]: a campaign shaped like the builtin sweep1k — 18
   generated 16-task DAGs x 5 policies x {2,4,6} PEs x 4 ambients = 1080
   cells — whose graph seeds derive from the workload seed and the round.
   Each round runs a fresh draw cold into a fresh store on a pool of nproc
   domains, then does no-op resumes over the full store; drawing new
   graphs per round averages the per-graph cost over the run. Many small cells where the leakage
   fixed point dominates; the cold half writes the artifact store and the
   resume half reads it. *)

open Common
module Campaign = Tats_campaign.Campaign
module Policy = Tats_sched.Policy
module Pool = Tats_util.Pool
module Fsio = Tats_util.Fsio
module Rng = Tats_util.Rng
module Trace = Tats_util.Trace

let resumes_per_round = 3
let sampled_cells = 6

let spec ~seed ~round =
  let rng = Rng.derive seed round in
  let plat n_pes ambient =
    {
      Campaign.arch = Campaign.Platform n_pes;
      ambient;
      power_budget = None;
      pins = [];
      isolation = [];
    }
  in
  {
    Campaign.name = Printf.sprintf "perfbench-sweep-%d-%d" seed round;
    (* Distinct by construction: the low bits are the graph index. *)
    graphs =
      List.init 18 (fun i ->
          Campaign.Generated
            {
              seed = (Rng.int rng 1_000_000 * 32) + i;
              n_tasks = 16;
              n_edges = 24;
              deadline = 800.0;
            });
    policies = Policy.all;
    platforms =
      List.concat_map
        (fun n -> List.map (plat n) [ 35.0; 45.0; 55.0; 65.0 ])
        [ 2; 4; 6 ];
  }

type ctx = {
  pool : Pool.t;
  seed : int;
  rng : Rng.t;  (** picks the cells re-checked inline *)
  mutable round : int;
}

let store ctx (cfg : config) = Filename.concat cfg.workdir (Printf.sprintf "sweep-%d" ctx.round)

let cells = 1080

let setup (cfg : config) =
  let pool = Pool.create ~jobs:cfg.nproc () in
  let ctx = { pool; seed = cfg.seed; rng = Rng.create cfg.seed; round = 0 } in
  (* Warm-up: the 180 cells of three fixed graphs (the same work at every
     seed, so set-up times compare across seeds) into a throwaway store. *)
  let spec = spec ~seed:0 ~round:0 in
  let warm = { spec with Campaign.graphs = List.filteri (fun i _ -> i < 3) spec.Campaign.graphs } in
  let dir = Filename.concat cfg.workdir "sweep-warm" in
  ignore (Campaign.run ~pool ~dir warm : Campaign.run_report);
  Fsio.remove_recursive dir;
  ctx

let teardown ctx = Pool.shutdown ctx.pool

let run ctx spec dir =
  Trace.with_span "bench.campaign.run" (fun () -> Campaign.run ~pool:ctx.pool ~dir spec)

let same_result (a : Campaign.result) (b : Campaign.result) =
  let eq x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
  eq a.makespan b.makespan && eq a.total_power b.total_power
  && eq a.max_temp b.max_temp && eq a.avg_temp b.avg_temp
  && eq a.deadline b.deadline
  && a.deadline_met = b.deadline_met
  && a.within_budget = b.within_budget

type round = { cold : float; resumes : float list }

(* One cold run plus its resumes, every output checked. *)
let round (cfg : config) ctx =
  let dir = store ctx cfg in
  let spec = spec ~seed:ctx.seed ~round:ctx.round in
  ctx.round <- ctx.round + 1;
  Fsio.remove_recursive dir;
  let report, cold = time (fun () -> run ctx spec dir) in
  check
    (report.Campaign.computed = cells && report.Campaign.manifest_written)
    "sweep: cold run did not compute every cell and write the manifest";
  let manifest = Fsio.read_file (Campaign.manifest_path dir) in
  (match Campaign.load_manifest ~dir with
  | Error e -> check false ("sweep: manifest unreadable: " ^ e)
  | Ok m ->
      let entries = Array.of_list m.Campaign.entries in
      for _ = 1 to sampled_cells do
        let e = entries.(Rng.int ctx.rng (Array.length entries)) in
        check
          (same_result (Campaign.run_cell e.Campaign.cell) e.Campaign.result)
          ("sweep: stored result differs from inline run_cell for "
          ^ Campaign.cell_label e.Campaign.cell)
      done);
  let resumes =
    List.init resumes_per_round (fun _ ->
        let r, wall = time (fun () -> run ctx spec dir) in
        check
          (r.Campaign.computed = 0 && r.Campaign.reused = cells
          && Fsio.read_file (Campaign.manifest_path dir) = manifest)
          "sweep: no-op resume recomputed cells or changed the manifest";
        wall)
  in
  ({ cold; resumes }, dir)

let measure (cfg : config) ctx =
  let rounds = ref [] in
  let n =
    repeat_for cfg.seconds (fun _ ->
        let r, dir = round cfg ctx in
        Fsio.remove_recursive dir;
        rounds := r :: !rounds)
  in
  let per_s = Array.of_list (List.map (fun r -> float_of_int cells /. r.cold) !rounds) in
  let cold_ms = Array.of_list (List.map (fun r -> r.cold *. 1e3) !rounds) in
  let resume_ms =
    Array.of_list (List.concat_map (fun r -> List.map (( *. ) 1e3) r.resumes) !rounds)
  in
  let nr = Array.length resume_ms in
  let e2e =
    [
      metric "peak_rss_mb" "MiB" (peak_rss_mb ());
      metric ~samples:n "throughput_per_s" "1/s" (median per_s);
      metric ~samples:nr "latency_ms" "ms" (median resume_ms);
    ]
  in
  let named =
    [
      metric ~samples:n "sweep_cells_per_s" "1/s" (median per_s);
      metric ~samples:nr "sweep_resume_s" "s" (median resume_ms /. 1e3);
      metric ~samples:n "sweep_cold_s" "s" (median cold_ms /. 1e3);
    ]
  in
  (e2e, named, [])

let dir_bytes dir =
  let cells = Filename.concat dir "cells" in
  let size p = try (Unix.stat p).Unix.st_size with Unix.Unix_error _ -> 0 in
  Array.fold_left
    (fun acc f -> acc + size (Filename.concat cells f))
    (size (Campaign.manifest_path dir))
    (try Sys.readdir cells with Sys_error _ -> [||])

(* One untraced round, then one traced round (cold run + resumes) whose
   spans and counters give the per-layer numbers. *)
let traced (cfg : config) ctx =
  let gc0 = gc_mark () in
  let untraced, dir = round cfg ctx in
  Fsio.remove_recursive dir;
  let gc1 = gc_mark () in
  Tats_util.Metricsreg.reset ();
  Pool.reset_stats ctx.pool;
  Trace.start ();
  let t0 = now () in
  let traced, dir = round cfg ctx in
  let wall = now () -. t0 in
  Trace.stop ();
  let bytes = dir_bytes dir in
  Fsio.remove_recursive dir;
  let aggs = Layers.self_times (Trace.spans ()) in
  let reg = Layers.registry () in
  Trace.reset ();
  let c = Layers.counter reg in
  let values =
    Layers.common aggs reg
    @ Layers.pool (Pool.stats ctx.pool) ~wall
    @ [
        (* Everything the runner does around the cells: artifact status
           reads and manifest digesting (campaign.run self time) plus the
           atomic artifact writes in each pool task around its cells. *)
        ( "campaign.store_s",
          Layers.self aggs "campaign.run" +. Layers.self aggs "pool.task" );
        ("campaign.manifest_s", Layers.total aggs "campaign.manifest");
        ("campaign.cells_computed", c "campaign.cells_computed");
        ("campaign.cells_reused", c "campaign.cells_reused");
        ("campaign.artifact_bytes", float_of_int bytes);
        ("trace.overhead_ratio", (traced.cold /. untraced.cold) -. 1.0);
      ]
    @ List.map (fun m -> (m.name, m.value)) (gc_metrics gc0 gc1)
  in
  let sum = List.fold_left ( +. ) 0.0 in
  let diff name a b =
    Json.Obj
      [
        ("metric", str name);
        ("untraced", num a);
        ("traced", num b);
        ("traced_minus_untraced", num (b -. a));
      ]
  in
  let overhead =
    Json.Arr
      [
        diff "sweep_cold_s" untraced.cold traced.cold;
        diff "sweep_resume_s"
          (sum untraced.resumes /. float_of_int resumes_per_round)
          (sum traced.resumes /. float_of_int resumes_per_round);
      ]
  in
  (values, [ ("trace_overhead", overhead); ("layers", Layers.spans_json aggs) ])
