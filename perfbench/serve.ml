(* Workload [serve]: tatsd runs as its own process, warmed in set-up, and
   one generator process drives it with an open loop — seeded Poisson
   arrivals, pipelined on one connection with Frame.write/Frame.read and
   echoed ids, each latency timed from when the request was due. The mix
   is mostly inquiries over 2-, 4- and 6-PE engines (a hot set of power
   vectors that hit the cross-request cache, plus fresh ones that insert
   and solve) and a minority of schedules (Bm1-Bm4 x all 5 policies,
   platform arch) that share the single dispatcher, so head-of-line
   blocking reaches the tail. It runs at a nominal rate, then saturates
   tatsd with a fixed window of outstanding requests to measure its
   capacity. *)

open Common
module Protocol = Tats_serve.Protocol
module Frame = Tats_serve.Frame
module Engines = Tats_serve.Engines
module Hotspot = Tats_thermal.Hotspot
module Flow = Tats_cosynth.Flow
module Policy = Tats_sched.Policy
module Schedule = Tats_sched.Schedule
module Metrics = Tats_sched.Metrics
module Benchmarks = Tats_taskgraph.Benchmarks
module Catalog = Tats_techlib.Catalog
module Rng = Tats_util.Rng
module Pool = Tats_util.Pool
module Trace = Tats_util.Trace

(* ------------------------------------------------------------------ *)
(* Load shape *)

(* The mix. Only [hot_share] rests on a measurement: it is the inquiry
   hit rate of a traced sweep1k campaign (62.5%), the share of inquiries
   a co-synthesis loop repeats. The schedule share and the hot-set size
   are assumptions, since no recorded client traffic exists. *)
let schedule_every = 20
let hot_share = 0.625
let hot_per_engine = 16
let widths = [| 2; 4; 6 |]

(* The open-loop rate, requests/s: a tenth to a fifth of the capacity the
   saturation step measures on a shared 2-core host (1700-4000/s as the
   host's load varies), so the tail it shows is head-of-line blocking
   behind warm thermal-aware schedules (15-70 ms on the single
   dispatcher), not overload. *)
let nominal_rate = 400.0

(* The open-loop step takes [nominal_share] of --seconds and sends at
   least [nominal_min_requests]: every schedule combo then has 21
   samples, ten beyond its median. The saturation rounds take the rest. *)
let nominal_share = 0.7
let nominal_min_requests = 21 * 20 * schedule_every

(* A nominal step whose generator sent later than this at p99 is flagged:
   a generator that falls behind is late by ever more, while a busy shared
   host delays single sends by a few milliseconds. *)
let lateness_limit_ms = 25.0

(* One inquiry in [inquiry_sample] is compared against a one-shot solve. *)
let inquiry_sample = 16

(* tatsd's admission bound (--queue). A thermal-aware schedule stalls the
   dispatcher for up to ~70 ms, which queues dozens of arrivals behind
   it; the default bound of 64 would turn those bursts into overload
   rejections. *)
let admission_queue = 256

(* Outstanding requests at which the generator stops the open loop:
   below the admission bound, so the generator never provokes an overload
   rejection. An open loop above capacity grows its backlog without
   bound, so reaching the cap is how backlog growth shows; the requests
   it leaves unsent count as failures. *)
let backlog_cap = 192

(* The saturation step: a closed loop that holds the backlog at the cap.
   Its sustained reply rate is the highest rate an open loop could offer
   without its backlog growing past the cap (serve_max_rps). Each round
   reports whether its p99 stayed under [latency_limit_ms], which on a
   2-core host holds with room to spare (p99 55-260 ms). A full queue also
   fills every dispatcher batch (at most 8), which keeps the rate steady;
   small windows leave batch sizes to chance. [saturation_requests] is a
   whole number of schedule cycles, so every seed offers the same
   schedule work. The step runs [saturation_rounds] times on fresh
   requests and reports the median rate. *)
let saturation_requests = 20 * schedule_every * 7
let saturation_rounds = 5
let latency_limit_ms = 500.0

(* The traced run's fixed pass, at the nominal rate. *)
let traced_seconds = 10.0

let combos =
  Array.of_list
    (List.concat_map (fun b -> List.map (fun p -> (b, p)) Policy.all) [ 0; 1; 2; 3 ])

(* ------------------------------------------------------------------ *)
(* Requests and their one-shot references *)

type kind =
  | Inquiry of float array option  (** expected temps when sampled *)
  | Sched of int  (** index into [combos] *)

type item = { id : int; due : float; frame : string; kind : kind }

let encode ?id kind =
  Json.to_string (Protocol.request_to_json (Protocol.request ?id kind))

let inquiry_request n_pes (power, idle) =
  Protocol.Inquiry { Protocol.n_pes; power; idle }

let schedule_request c =
  let bench, policy = combos.(c) in
  Protocol.Schedule
    {
      Protocol.bench;
      policy;
      arch = Protocol.Platform;
      n_pes = 4;
      platform = None;
      pins = [];
      isolation = [];
    }

let vector rng n =
  ( Array.init n (fun _ -> Rng.uniform rng 0.2 2.0),
    Array.init n (fun _ -> Rng.uniform rng 0.02 0.1) )

type refs = {
  facades : (int * Hotspot.t) list;  (** fresh, queried statelessly *)
  schedules : Flow.outcome array;  (** one Flow.run_platform per combo *)
}

let make_refs cfg =
  let engines = Engines.create () in
  let facades = Array.to_list (Array.map (fun n -> (n, Engines.platform engines ~n_pes:n)) widths) in
  let schedules =
    Pool.with_pool ~jobs:cfg.nproc (fun pool ->
        Pool.parallel_map ~chunk:1 pool
          (fun (bench, policy) ->
            Flow.run_platform ~graph:(Benchmarks.load bench)
              ~lib:(Catalog.platform_library ()) ~policy ())
          combos)
  in
  { facades; schedules }

let one_shot refs n_pes (power, idle) =
  Hotspot.inquire_with_leakage ~cache:false (List.assoc n_pes refs.facades)
    ~dynamic:power ~idle

(* The request stream of one run: a seeded source of payloads. Schedule
   slots walk [combos] cyclically from a seeded phase; [combos] is
   bench-major, so the four thermal-aware schedules — the ones that stall
   the dispatcher — sit five slots apart and every step carries the same
   mix. *)
type source = {
  rng : Rng.t;
  hot : (float array * float array) array array;
  mutable next : int;  (** the next schedule slot's combo *)
}

let source seed =
  let rng = Rng.create seed in
  let hot = Array.map (fun n -> Array.init hot_per_engine (fun _ -> vector rng n)) widths in
  { rng; hot; next = Rng.int rng (Array.length combos) }

let next_combo src =
  let c = src.next in
  src.next <- (c + 1) mod Array.length combos;
  c

(* Poisson arrivals at [rate] until [seconds] or [count] requests; ids
   count up from [first]. *)
let gen_step src refs ~first ~rate ?(seconds = infinity) ?(count = max_int) () =
  let rec go acc id t =
    let t = t -. (log (1.0 -. Rng.float src.rng 1.0) /. rate) in
    if t >= seconds || id - first >= count then Array.of_list (List.rev acc)
    else begin
      let item =
        if id mod schedule_every = 0 then
          let c = next_combo src in
          { id; due = t; frame = encode ~id:(int id) (schedule_request c); kind = Sched c }
        else begin
          let w = Rng.int src.rng (Array.length widths) in
          let v =
            if Rng.float src.rng 1.0 < hot_share then
              src.hot.(w).(Rng.int src.rng hot_per_engine)
            else vector src.rng widths.(w)
          in
          let expect =
            if Rng.int src.rng inquiry_sample = 0 then Some (one_shot refs widths.(w) v)
            else None
          in
          {
            id;
            due = t;
            frame = encode ~id:(int id) (inquiry_request widths.(w) v);
            kind = Inquiry expect;
          }
        end
      in
      go (item :: acc) (id + 1) t
    end
  in
  go [] first 0.0

(* Bit-identity of a reply with its one-shot reference. *)
let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let arrays_equal a b =
  Array.length a = Array.length b && Array.for_all2 bits_equal a b

(* The first field of [reply] that is not bit-identical to the one-shot
   reference, if any. *)
let mismatch refs kind reply =
  let arr k = Option.bind (Json.mem k reply) Json.float_array in
  let fields fs =
    List.find_map (fun (k, ok) -> if ok then None else Some k) fs
  in
  match kind with
  | Inquiry None -> None
  | Inquiry (Some temps) ->
      fields [ ("temps", Option.fold ~none:false ~some:(arrays_equal temps) (arr "temps")) ]
  | Sched c ->
      let o = refs.schedules.(c) in
      let eq k v = Option.fold ~none:false ~some:(bits_equal v) (get_num k reply) in
      let eqa k v = Option.fold ~none:false ~some:(arrays_equal v) (arr k) in
      fields
        [
          ("makespan", eq "makespan" o.Flow.schedule.Schedule.makespan);
          ("total_power", eq "total_power" o.Flow.row.Metrics.total_power);
          ("max_temp", eq "max_temp" o.Flow.row.Metrics.max_temp);
          ("avg_temp", eq "avg_temp" o.Flow.row.Metrics.avg_temp);
          ("arch_cost", eq "arch_cost" o.Flow.arch_cost);
          ("outer_iterations", eq "outer_iterations" (float_of_int o.Flow.outer_iterations));
          ( "deadline_met",
            Option.bind (Json.mem "deadline_met" reply) Json.bool
            = Some (Schedule.meets_deadline o.Flow.schedule) );
          ("pe_powers", eqa "pe_powers" o.Flow.report.Metrics.pe_powers);
          ("block_temps", eqa "block_temps" o.Flow.report.Metrics.block_temps);
        ]

let describe = function
  | Inquiry _ -> "inquiry"
  | Sched c ->
      let b, p = combos.(c) in
      Printf.sprintf "schedule %s/%s" (Protocol.bench_name b) (Policy.name p)

(* ------------------------------------------------------------------ *)
(* The tatsd process *)

type server = { pid : int; fd : Unix.file_descr }

let live = ref []

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

let () = at_exit kill_all

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () ->
      (* A dead server surfaces as a read error instead of a hang. *)
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 60.0;
      Some fd
  | exception Unix.Unix_error _ ->
      Unix.close fd;
      None

let start cfg ~tag ~extra =
  let sock = Filename.concat cfg.workdir (tag ^ ".sock") in
  let log =
    Unix.openfile (Filename.concat cfg.workdir (tag ^ ".log"))
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let argv =
    Array.of_list
      ([ cfg.tatsd; "--socket"; sock; "--jobs"; string_of_int cfg.nproc;
         "--queue"; string_of_int admission_queue ]
      @ extra)
  in
  let pid = Unix.create_process cfg.tatsd argv Unix.stdin log log in
  Unix.close log;
  live := pid :: !live;
  let deadline = now () +. 30.0 in
  let rec wait () =
    match connect sock with
    | Some fd -> { pid; fd }
    | None ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ -> failwith ("perfbench: tatsd exited during start-up; see " ^ tag ^ ".log"));
        if now () > deadline then failwith "perfbench: tatsd did not start";
        Unix.sleepf 0.01;
        wait ()
  in
  wait ()

(* One closed-loop request; frames left over from an earlier pipelined
   step (control replies) are skipped by id. *)
let call srv kind =
  let id = -1_000_000 in
  Frame.write srv.fd (encode ~id:(int id) kind);
  let rec read () =
    match Frame.read srv.fd with
    | Ok s -> (
        match Json.of_string s with
        | Ok j when get_num "id" j = Some (float_of_int id) -> j
        | Ok _ -> read ()
        | Error e -> failwith ("perfbench: bad reply: " ^ e))
    | Error e -> failwith (Format.asprintf "perfbench: tatsd read: %a" Frame.pp_read_error e)
  in
  read ()

(* Graceful stop: the shutdown request drains admitted work, then tatsd
   writes its --trace/--metrics files and exits. *)
let stop srv =
  if List.mem srv.pid !live then begin
    (try ignore (call srv Protocol.Shutdown : Json.t)
     with Failure _ | Unix.Unix_error _ -> ());
    (try Unix.close srv.fd with Unix.Unix_error _ -> ());
    let deadline = now () +. 30.0 in
    let rec reap () =
      match Unix.waitpid [ Unix.WNOHANG ] srv.pid with
      | 0, _ when now () < deadline ->
          Unix.sleepf 0.01;
          reap ()
      | 0, _ ->
          Unix.kill srv.pid Sys.sigkill;
          ignore (Unix.waitpid [] srv.pid)
      | _ -> ()
    in
    reap ();
    live := List.filter (( <> ) srv.pid) !live
  end

(* Warm-up: every hot vector and every schedule combo once, pipelined
   and matched by id (replies leave in completion order), each checked
   against its reference. *)
let warm srv refs hot =
  let inquiries =
    List.concat
      (List.mapi
         (fun w vs ->
           Array.to_list
             (Array.map
                (fun v ->
                  (inquiry_request widths.(w) v, Inquiry (Some (one_shot refs widths.(w) v))))
                vs))
         (Array.to_list hot))
  in
  let schedules = List.init (Array.length combos) (fun c -> (schedule_request c, Sched c)) in
  let reqs = Array.of_list (inquiries @ schedules) in
  let settle j =
    match get_num "id" j with
    | Some id when id >= 0.0 && int_of_float id < Array.length reqs ->
        let kind = snd reqs.(int_of_float id) in
        if not (Protocol.reply_ok j) then
          check false ("serve: warm-up " ^ describe kind ^ " failed: " ^ Json.to_string j)
        else begin
          match mismatch refs kind j with
          | Some f ->
              check false
                (Printf.sprintf "serve: warm-up %s reply differs from one-shot in %s"
                   (describe kind) f)
          | None -> succeed ()
        end
    | _ -> check false "serve: warm-up reply with an unknown id"
  in
  (* Windows well inside tatsd's admission bound. *)
  let window = 32 in
  let rec go lo =
    if lo < Array.length reqs then begin
      let hi = min (Array.length reqs) (lo + window) in
      for i = lo to hi - 1 do
        Frame.write srv.fd (encode ~id:(int i) (fst reqs.(i)))
      done;
      for _ = lo to hi - 1 do
        match Option.map Json.of_string (Result.to_option (Frame.read srv.fd)) with
        | Some (Ok j) -> settle j
        | _ -> check false "serve: warm-up reply lost"
      done;
      go hi
    end
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Replies *)

(* Checks the reply of each of the first [sent] items; returns each one's
   reply time, or nan when it failed, was lost or differs from its
   reference. *)
let settle refs items ~sent replies recv_at =
  Array.init sent (fun i ->
      let it = items.(i) in
      match replies.(i) with
      | Some j when Protocol.reply_ok j -> (
          match mismatch refs it.kind j with
          | Some f ->
              check false
                (Printf.sprintf "serve: %s reply differs from one-shot in %s" (describe it.kind) f);
              nan
          | None ->
              succeed ();
              recv_at.(i))
      | Some _ | None ->
          fail_quietly ();
          nan)

(* Latency in s of each settled item from [start i]; +inf when it failed
   (a failed request misses every latency limit). *)
let latencies done_at start =
  Array.mapi (fun i t -> if Float.is_nan t then infinity else t -. start i) done_at

let count_ok done_at = Array.fold_left (fun acc t -> if Float.is_nan t then acc else acc + 1) 0 done_at

let sched_of items latency =
  Array.to_list latency
  |> List.mapi (fun i l -> match items.(i).kind with Sched c -> Some (c, l) | Inquiry _ -> None)
  |> List.filter_map Fun.id |> Array.of_list

(* ------------------------------------------------------------------ *)
(* The open-loop step *)

type step = {
  sent : int;
  ok : int;
  latency : float array;  (** s from due time; +inf when failed or lost *)
  sched_latency : (int * float) array;  (** combo, latency *)
  lateness : float array;  (** send time minus due time, s *)
  backlog_mean : float;  (** mean outstanding requests at send time *)
  backlog_max : int;
  aborted : bool;  (** stopped at [backlog_cap] *)
  elapsed : float;  (** first due time to last reply *)
  queue_depth_max : int;  (** from stats probes, when probing *)
}

(* Ids below zero are control traffic: -1 wakes the receiver, -2 and
   below are stats probes. *)
let run_step srv refs ~probe items =
  let n = Array.length items in
  let base = if n = 0 then 0 else items.(0).id in
  let recv_at = Array.make n nan in
  let replies = Array.make n None in
  let received = Atomic.make 0 and target = Atomic.make n in
  let receiver () =
    let qmax = ref 0 in
    let rec loop () =
      if Atomic.get received < Atomic.get target then
        match Frame.read srv.fd with
        | Error _ -> ()
        | Ok payload ->
            let t = now () in
            (match Json.of_string payload with
            | Ok j -> (
                match get_num "id" j with
                | Some id when id >= 0.0 ->
                    let i = int_of_float id - base in
                    if i >= 0 && i < n && Float.is_nan recv_at.(i) then begin
                      recv_at.(i) <- t;
                      replies.(i) <- Some j;
                      Atomic.incr received
                    end
                | Some id when id <= -2.0 ->
                    qmax := max !qmax (int_of_float (get_num0 "queue_depth" j))
                | _ -> ())
            | Error _ -> ());
            loop ()
    in
    loop ();
    !qmax
  in
  let rx = Domain.spawn receiver in
  let lateness = Array.make n nan in
  let outstanding = Array.make n 0 in
  let t0 = now () +. 0.005 in
  let next_probe = ref t0 and probe_id = ref (-2) in
  let sent = ref 0 and aborted = ref false in
  while !sent < n && not !aborted do
    let it = items.(!sent) in
    let due = t0 +. it.due in
    let wait = due -. now () in
    if wait > 0.0 then Unix.sleepf wait;
    let out = !sent - Atomic.get received in
    if out >= backlog_cap then aborted := true
    else begin
      let s = now () in
      if probe && s >= !next_probe then begin
        Frame.write srv.fd (encode ~id:(int !probe_id) Protocol.Stats);
        decr probe_id;
        next_probe := s +. 0.05
      end;
      lateness.(!sent) <- s -. due;
      outstanding.(!sent) <- out;
      Frame.write srv.fd it.frame;
      incr sent
    end
  done;
  Atomic.set target !sent;
  (* Wakes a receiver already blocked on a reply that will not come. *)
  Frame.write srv.fd (encode ~id:(int (-1)) Protocol.Ping);
  let qmax = Domain.join rx in
  let sent = !sent in
  (* Requests the generator could not send count as failures. *)
  for _ = sent to n - 1 do
    fail_quietly ()
  done;
  let last = Array.fold_left (fun acc t -> if Float.is_nan t then acc else Float.max acc t) t0 recv_at in
  let done_at = settle refs items ~sent replies recv_at in
  let latency = latencies done_at (fun i -> t0 +. items.(i).due) in
  let outstanding = Array.sub outstanding 0 sent in
  {
    sent;
    ok = count_ok done_at;
    latency;
    sched_latency = sched_of items latency;
    lateness = Array.sub lateness 0 sent;
    backlog_mean =
      float_of_int (Array.fold_left ( + ) 0 outstanding) /. float_of_int (max 1 sent);
    backlog_max = Array.fold_left max 0 outstanding;
    aborted = !aborted;
    elapsed = last -. t0;
    queue_depth_max = qmax;
  }

let p50_ms a = percentile a 50.0 *. 1e3
let p99_ms a = percentile a 99.0 *. 1e3

(* A percentile of the nominal step as the median over consecutive
   segments that each hold enough samples for it: one burst of host noise
   then moves one segment, not the result. *)
let segment_requests = 1000

let segments f latency =
  let k = max 1 (Array.length latency / segment_requests) in
  let len = Array.length latency / k in
  Array.init k (fun i -> f (Array.sub latency (i * len) len))

let segmented f latency = median (segments f latency)

let sched_p50_ms s = p50_ms (Array.map snd s.sched_latency)

let per_combo s =
  let per = Array.make (Array.length combos) [] in
  Array.iter (fun (c, l) -> per.(c) <- l :: per.(c)) s.sched_latency;
  Array.map Array.of_list per

(* The fewest schedules any combo had: the support of each combo's
   median. *)
let per_combo_min s = Array.fold_left (fun acc a -> min acc (Array.length a)) max_int (per_combo s)

(* The mean over schedule combos of each combo's median latency: the
   typical wait for a schedule across the mix. A pooled median would jump
   between the discrete cost levels of neighbouring combos. *)
let schedule_ms s =
  let meds = per_combo s |> Array.to_list |> List.filter (fun a -> a <> [||]) |> List.map median in
  1e3 *. List.fold_left ( +. ) 0.0 meds /. float_of_int (List.length meds)

(* The mean latency of the requests that succeeded. *)
let mean_ms s =
  let ok = List.filter Float.is_finite (Array.to_list s.latency) in
  1e3 *. List.fold_left ( +. ) 0.0 ok /. float_of_int (max 1 (List.length ok))

let behind s = percentile s.lateness 99.0 *. 1e3 > lateness_limit_ms

let step_json s =
  Json.Obj
    [
      ("rate", num nominal_rate);
      ("sent", int s.sent);
      ("ok", int s.ok);
      ("p50_ms", num (p50_ms s.latency));
      ("p99_ms", num (p99_ms s.latency));
      ("p99_supported", Json.Bool (supports_percentile s.sent 99.0));
      ("mean_ms", num (mean_ms s));
      ("schedule_p50_ms", num (sched_p50_ms s));
      ("schedule_ms", num (schedule_ms s));
      ("schedules", int (Array.length s.sched_latency));
      ("schedules_per_combo_min", int (per_combo_min s));
      ("lateness_p50_ms", num (p50_ms s.lateness));
      ("lateness_p99_ms", num (p99_ms s.lateness));
      ("lateness_max_ms", num (percentile s.lateness 100.0 *. 1e3));
      ("backlog_mean", num s.backlog_mean);
      ("backlog_max", int s.backlog_max);
      ("backlog_grew", Json.Bool s.aborted);
      ("generator_behind", Json.Bool (behind s));
    ]

(* ------------------------------------------------------------------ *)
(* The saturation step *)

type saturation = {
  replies_ok : int;
  rps : float;  (** ok replies / (first send to last reply) *)
  sat_latency : float array;  (** s from send; +inf when failed *)
  wall : float;
}

(* A closed loop on one thread: [backlog_cap] requests in flight, one
   more sent as each reply arrives. *)
let saturate srv refs items =
  let n = Array.length items in
  let base = if n = 0 then 0 else items.(0).id in
  let sent_at = Array.make n nan and recv_at = Array.make n nan in
  let replies = Array.make n None in
  let next = ref 0 in
  let send () =
    sent_at.(!next) <- now ();
    Frame.write srv.fd items.(!next).frame;
    incr next
  in
  let t0 = now () in
  while !next < min n backlog_cap do
    send ()
  done;
  let received = ref 0 and lost = ref false in
  while !received < n && not !lost do
    match Frame.read srv.fd with
    | Error _ -> lost := true
    | Ok payload -> (
        let t = now () in
        match Json.of_string payload with
        | Ok j -> (
            match get_num "id" j with
            | Some id when id >= 0.0 ->
                let i = int_of_float id - base in
                if i >= 0 && i < n && Float.is_nan recv_at.(i) then begin
                  recv_at.(i) <- t;
                  replies.(i) <- Some j;
                  incr received;
                  if !next < n then send ()
                end
            | _ -> ())
        | Error _ -> ())
  done;
  let sent = !next in
  for _ = sent to n - 1 do
    fail_quietly ()
  done;
  let done_at = settle refs items ~sent replies recv_at in
  let last = Array.fold_left (fun acc t -> if Float.is_nan t then acc else Float.max acc t) t0 done_at in
  let replies_ok = count_ok done_at in
  let wall = last -. t0 in
  {
    replies_ok;
    rps = float_of_int replies_ok /. wall;
    sat_latency = latencies done_at (fun i -> sent_at.(i));
    wall;
  }

let saturation_json s =
  Json.Obj
    [
      ("window", int backlog_cap);
      ("requests", int saturation_requests);
      ("ok", int s.replies_ok);
      ("wall_s", num s.wall);
      ("replies_per_s", num s.rps);
      ("p50_ms", num (p50_ms s.sat_latency));
      ("p99_ms", num (p99_ms s.sat_latency));
      ("within_latency_limit", Json.Bool (p99_ms s.sat_latency < latency_limit_ms));
    ]

(* ------------------------------------------------------------------ *)
(* Workload entry points *)

type ctx = {
  srv : server;
  refs : refs;
  src : source;
  nominal : item array;
  saturation : item array list;  (** one per round *)
}

let setup (cfg : config) =
  let refs = make_refs cfg in
  let src = source cfg.seed in
  let nominal =
    gen_step src refs ~first:0 ~rate:nominal_rate
      ~count:
        (max nominal_min_requests (int_of_float (nominal_rate *. nominal_share *. cfg.seconds)))
      ()
  in
  (* Ids continue from the nominal step; the offered rate is irrelevant
     to a closed loop. *)
  let saturation =
    List.init saturation_rounds (fun k ->
        gen_step src refs
          ~first:(Array.length nominal + (k * saturation_requests))
          ~rate:nominal_rate ~count:saturation_requests ())
  in
  let srv = start cfg ~tag:"tatsd" ~extra:[] in
  warm srv refs src.hot;
  { srv; refs; src; nominal; saturation }

let teardown ctx = stop ctx.srv

let measure _cfg ctx =
  let nominal = run_step ctx.srv ctx.refs ~probe:false ctx.nominal in
  let rounds =
    List.map
      (fun items ->
        Unix.sleepf 0.2;
        saturate ctx.srv ctx.refs items)
      ctx.saturation
  in
  let max_rps = median (Array.of_list (List.map (fun r -> r.rps) rounds)) in
  let sat_ok = List.fold_left (fun acc r -> acc + r.replies_ok) 0 rounds in
  let n = Array.length nominal.latency in
  let ns = Array.length nominal.sched_latency in
  let support = per_combo_min nominal in
  if not (supports_percentile n 99.0) then
    check false "serve: nominal step too short for a p99 with ten samples beyond it";
  if not (supports_percentile support 50.0) then
    check false "serve: a schedule combo has too few samples for a median with ten beyond it";
  let e2e =
    [
      metric "peak_rss_mb" "MiB" (peak_rss_mb ~pid:(string_of_int ctx.srv.pid) ());
      metric ~samples:sat_ok "throughput_per_s" "1/s" max_rps;
      metric ~samples:support "latency_ms" "ms" (schedule_ms nominal);
    ]
  in
  let named =
    [
      metric ~samples:n "serve_p50_ms" "ms" (segmented p50_ms nominal.latency);
      metric ~samples:n "serve_p99_ms" "ms" (segmented p99_ms nominal.latency);
      metric ~samples:ns "serve_schedule_p50_ms" "ms" (sched_p50_ms nominal);
      metric ~samples:support "serve_schedule_ms" "ms" (schedule_ms nominal);
      metric ~samples:sat_ok "serve_max_rps" "1/s" max_rps;
    ]
  in
  let extra =
    [
      ("backlog_cap", int backlog_cap);
      ("lateness_limit_ms", num lateness_limit_ms);
      ("nominal", step_json nominal);
      ("saturation", Json.Arr (List.map saturation_json rounds));
      ( "nominal_segments",
        Json.Obj
          [
            ("p50_ms", Json.Arr (Array.to_list (Array.map num (segments p50_ms nominal.latency))));
            ("p99_ms", Json.Arr (Array.to_list (Array.map num (segments p99_ms nominal.latency))));
          ] );
    ]
  in
  (e2e, named, extra)

(* The per-layer run: one fixed pass at the nominal rate against the
   untraced tatsd of set-up, then the same pass against a traced one
   (tatsd --trace/--metrics) with stats probes for the queue depth. The
   traced tatsd is warmed like every other, so its spans are kept only
   from a ping sent between warm-up and pass, and the counters of a
   tatsd that only warmed up are subtracted from its counters. *)
let traced (cfg : config) ctx =
  let items = gen_step ctx.src ctx.refs ~first:0 ~rate:nominal_rate ~seconds:traced_seconds () in
  let gc0 = gc_mark () in
  let untraced = run_step ctx.srv ctx.refs ~probe:false items in
  let gc1 = gc_mark () in
  stop ctx.srv;
  let file name = Filename.concat cfg.workdir name in
  let warm_only = start cfg ~tag:"tatsd-warm" ~extra:[ "--metrics"; file "warm-metrics.json" ] in
  warm warm_only ctx.refs ctx.src.hot;
  stop warm_only;
  let srv =
    start cfg ~tag:"tatsd-traced"
      ~extra:[ "--trace"; file "tatsd-trace.json"; "--metrics"; file "tatsd-metrics.json" ]
  in
  warm srv ctx.refs ctx.src.hot;
  ignore (call srv Protocol.Ping : Json.t);
  let stats0 = call srv Protocol.Stats in
  let s = run_step srv ctx.refs ~probe:true items in
  let stats1 = call srv Protocol.Stats in
  stop srv;
  let spans = Layers.spans_of_chrome (file "tatsd-trace.json") in
  let mark =
    List.fold_left
      (fun acc (sp : Trace.span) ->
        if sp.name = "serve.execute" && List.assoc_opt "kind" sp.args = Some (Trace.Str "ping")
        then Float.min acc sp.ts
        else acc)
      infinity spans
  in
  if mark = infinity then failwith "perfbench: no pass mark in the tatsd trace";
  let aggs = Layers.self_times (List.filter (fun (sp : Trace.span) -> sp.ts >= mark) spans) in
  let warm_reg = Layers.registry_of_file (file "warm-metrics.json") in
  let full_reg = Layers.registry_of_file (file "tatsd-metrics.json") in
  let reg = Layers.sub_counters full_reg warm_reg in
  let c = Layers.counter reg in
  let server_p99_ms = Layers.histogram full_reg "serve.latency_s" "p99" *. 1e3 in
  let delta k = get_num0 k stats1 -. get_num0 k stats0 in
  let jobs = get_num0 "jobs" stats1 in
  let values =
    Layers.common aggs reg
    @ [
        ("serve.server_p99_ms", server_p99_ms);
        ("serve.transport_p99_ms", p99_ms s.latency -. server_p99_ms);
        ("serve.execute_self_s", Layers.self aggs "serve.execute");
        ("serve.queue_depth_max", float_of_int s.queue_depth_max);
        ("serve.rejected_overload", c "serve.rejected_overload");
        ("serve.rejected_deadline", c "serve.rejected_deadline");
        ("serve.p50_ms", p50_ms s.latency);
        ("serve.p99_ms", p99_ms s.latency);
        ("serve.schedule_p50_ms", sched_p50_ms s);
        ( "engines.hit_rate",
          if delta "inquiries" > 0.0 then delta "cache_hits" /. delta "inquiries" else 0.0 );
        ("pool.busy_ratio", Layers.total aggs "pool.task" /. (jobs *. s.elapsed));
        ("pool.tasks", c "pool.tasks");
        ("pool.steals", c "pool.steals");
        ("pool.parks", c "pool.parks");
        ("trace.overhead_ratio", (mean_ms s /. mean_ms untraced) -. 1.0);
      ]
    @ List.map (fun m -> (m.name, m.value)) (gc_metrics gc0 gc1)
  in
  let diff name f =
    Json.Obj
      [
        ("metric", str name);
        ("untraced", num (f untraced));
        ("traced", num (f s));
        ("traced_minus_untraced", num (f s -. f untraced));
      ]
  in
  let overhead =
    Json.Arr
      [
        diff "serve_mean_ms" mean_ms;
        diff "serve_p50_ms" (fun s -> p50_ms s.latency);
        diff "serve_p99_ms" (fun s -> p99_ms s.latency);
        diff "serve_schedule_p50_ms" sched_p50_ms;
      ]
  in
  let warm_values = Layers.common (Hashtbl.create 1) warm_reg in
  ( values,
    [
      ("trace_overhead", overhead);
      ("untraced_pass", step_json untraced);
      ("traced_pass", step_json s);
      ("tatsd_stats", stats1);
      ("warm_up_counters", Json.Obj (List.map (fun (k, v) -> (k, num v)) warm_values));
      ("layers", Layers.spans_json aggs);
    ] )
