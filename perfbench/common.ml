(* Shared plumbing of the benchmark: run configuration, pass/fail tally,
   metric records, sample statistics and process-level probes (peak RSS,
   GC counters). *)

module Json = Tats_serve.Json
module Stats = Tats_util.Stats

let now = Unix.gettimeofday

type config = {
  workload : string;
  seed : int;
  seconds : float;  (** length of the measured phase *)
  trace : bool;  (** per-layer run instead of the end-to-end run *)
  nproc : int;  (** pool jobs, [tatsd --jobs] and generator domains *)
  commit : string;
  tatsd : string;  (** path of the tatsd executable *)
  golden : string;  (** test/goldens/tables.golden, read only *)
  workdir : string;  (** private scratch directory inside the checkout *)
}

(* ------------------------------------------------------------------ *)
(* Output checks: every check is one attempted operation; a mismatch is a
   failed one and makes the run exit non-zero. *)

type tally = { mutable attempted : int; mutable failed : int }

let tally = { attempted = 0; failed = 0 }

let check ok what =
  tally.attempted <- tally.attempted + 1;
  if not ok then begin
    tally.failed <- tally.failed + 1;
    Printf.eprintf "perfbench: FAILED %s\n%!" what
  end

(* A request that was attempted and failed without an output to compare
   (error reply, transport loss): counted, not re-described per item. *)
let fail_quietly () =
  tally.attempted <- tally.attempted + 1;
  tally.failed <- tally.failed + 1

let succeed () = tally.attempted <- tally.attempted + 1

(* ------------------------------------------------------------------ *)
(* Metrics *)

type metric = { name : string; value : float; unit_ : string; samples : int }

let metric ?(samples = 1) name unit_ value = { name; value; unit_; samples }

let median a = if Array.length a = 0 then nan else Stats.median a

(* Nearest-rank percentile over a sample where failures count as +inf
   (a failed request misses every latency limit). *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then nan
  else begin
    let s = Array.copy a in
    Array.sort compare s;
    let k = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    s.(max 0 (min (n - 1) (k - 1)))
  end

(* The percentile may only be quoted when at least ten samples lie beyond
   it: n * (1 - p/100) >= 10. *)
let supports_percentile n p = float_of_int n *. (1.0 -. (p /. 100.0)) >= 10.0

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ------------------------------------------------------------------ *)
(* Process probes *)

let status_kb ~pid field =
  let path = Printf.sprintf "/proc/%s/status" pid in
  (* procfs files report length 0, so read to end of file. *)
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> nan
  | s ->
      String.split_on_char '\n' s
      |> List.find_map (fun line ->
             match String.index_opt line ':' with
             | Some i when String.sub line 0 i = field ->
                 let rest = String.sub line (i + 1) (String.length line - i - 1) in
                 Scanf.sscanf_opt (String.trim rest) "%d" Fun.id
             | _ -> None)
      |> Option.fold ~none:nan ~some:float_of_int

(* Peak resident set (VmHWM) in MiB. *)
let peak_rss_mb ?(pid = "self") () = status_kb ~pid "VmHWM" /. 1024.0

type gc_mark = { minor_words : float; major_collections : int }

let gc_mark () =
  let s = Gc.quick_stat () in
  { minor_words = s.Gc.minor_words; major_collections = s.Gc.major_collections }

let gc_metrics before after =
  [
    metric "gc.minor_mwords" "Mwords"
      ((after.minor_words -. before.minor_words) /. 1e6);
    metric "gc.major_collections" "count"
      (float_of_int (after.major_collections - before.major_collections));
  ]

(* ------------------------------------------------------------------ *)
(* JSON helpers *)

let num f = Json.Num f
let int i = Json.Num (float_of_int i)
let str s = Json.Str s

let metric_json m =
  Json.Obj
    [ ("value", num m.value); ("unit", str m.unit_); ("samples", int m.samples) ]

let get_num key j = Option.bind (Json.mem key j) Json.num
let get_num0 key j = Option.value ~default:0.0 (get_num key j)

(* Loop [body] until [seconds] have elapsed, at least once; returns how many
   times it ran. *)
let repeat_for seconds body =
  let t0 = now () in
  let rec go i =
    body i;
    if now () -. t0 < seconds then go (i + 1) else i + 1
  in
  go 0
