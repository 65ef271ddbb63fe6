module Policy = Tats_sched.Policy
module Online = Tats_sched.Online
module Constraints = Tats_sched.Constraints
module Catalog = Tats_techlib.Catalog

type arch = Platform | Cosynth

let arch_name = function Platform -> "platform" | Cosynth -> "cosynth"

type schedule_params = {
  bench : int;
  policy : Policy.t;
  arch : arch;
  n_pes : int;
  platform : string option;
  pins : (int * Constraints.pin) list;
  isolation : (int * int) list;
}

type transient_params = {
  sched : schedule_params;
  periods : int;
  dt : float option;
  time_unit : float;
  exact : bool;
}

type inquiry_params = {
  n_pes : int;
  power : float array;
  idle : float array;
}

type online_arrivals = Zero | Sporadic | Trace

let online_arrivals_name = function
  | Zero -> "zero"
  | Sporadic -> "sporadic"
  | Trace -> "trace"

type online_params = {
  o_bench : int;
  o_n_pes : int;
  o_policy : Online.policy;
  o_arrivals : online_arrivals;
  o_seed : int;
  o_mean_gap : float;
  o_platform : string option;
  o_pins : (int * Constraints.pin) list;
  o_isolation : (int * int) list;
}

type kind =
  | Ping
  | Stats
  | Schedule of schedule_params
  | Inquiry of inquiry_params
  | Transient of transient_params
  | Online of online_params
  | Sleep of float
  | Shutdown

let kind_name = function
  | Ping -> "ping"
  | Stats -> "stats"
  | Schedule _ -> "schedule"
  | Inquiry _ -> "inquiry"
  | Transient _ -> "transient"
  | Online _ -> "online"
  | Sleep _ -> "sleep"
  | Shutdown -> "shutdown"

type request = {
  id : Json.t option;
  deadline_ms : float option;
  kind : kind;
}

let request ?id ?deadline_ms kind = { id; deadline_ms; kind }

(* --- decoding ----------------------------------------------------------- *)

let ( let* ) = Result.bind

let field_error field what =
  Error (Printf.sprintf "field %S: %s" field what)

let bench_of_name = function
  | "Bm1" -> Ok 0
  | "Bm2" -> Ok 1
  | "Bm3" -> Ok 2
  | "Bm4" -> Ok 3
  | other ->
      field_error "bench" (Printf.sprintf "unknown benchmark %S (want Bm1..Bm4)" other)

let bench_name i = Printf.sprintf "Bm%d" (i + 1)

let req_get obj field extract ~default ~what =
  match extract ~default field obj with
  | Some v -> Ok v
  | None -> field_error field what

(* --- heterogeneous platform specs --------------------------------------- *)

let decode_platform obj =
  match Json.mem "platform" obj with
  | None -> Ok None
  | Some v -> (
      match Json.str v with
      | None -> field_error "platform" "must be a string"
      | Some name ->
          if Option.is_some (Catalog.platform_named name) then Ok (Some name)
          else
            field_error "platform"
              (Printf.sprintf "unknown platform %S (want %s)" name
                 (String.concat "|" (Catalog.platform_names ()))))

(* A non-negative integer that converts to [int] exactly: fractions and
   out-of-range magnitudes are rejected, never truncated. *)
let nat_field item name =
  match Option.bind (Json.mem name item) Json.num with
  | Some f when Float.is_integer f && f >= 0.0 && f < 0x1p62 ->
      Some (int_of_float f)
  | _ -> None

let int_field obj name ~default =
  match Json.mem name obj with
  | None -> Ok default
  | Some _ -> (
      match nat_field obj name with
      | Some n -> Ok n
      | None -> field_error name "must be a non-negative integer")

let max_pes = 64

(* The one wire decoder for a platform width. Every distinct width warms
   its own engine for the server's lifetime, so all three request kinds
   that carry one share this bound. *)
let n_pes_field obj ~default =
  let* n = int_field obj "n_pes" ~default in
  if n < 1 || n > max_pes then
    field_error "n_pes" (Printf.sprintf "must be in [1, %d]" max_pes)
  else Ok n

let decode_pins obj =
  match Json.mem "pins" obj with
  | None -> Ok []
  | Some (Json.Arr items) ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | item :: rest -> (
            match
              (nat_field item "task", nat_field item "pe", nat_field item "kind")
            with
            | Some t, Some p, None -> go ((t, Constraints.To_pe p) :: acc) rest
            | Some t, None, Some k -> go ((t, Constraints.To_kind k) :: acc) rest
            | _ ->
                field_error "pins"
                  "each pin must be {\"task\": int, \"pe\": int} or {\"task\": \
                   int, \"kind\": int}")
      in
      go [] items
  | Some _ -> field_error "pins" "must be an array of pin objects"

let decode_isolation obj =
  match Json.mem "isolation" obj with
  | None -> Ok []
  | Some (Json.Arr items) ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | item :: rest -> (
            match (nat_field item "task", nat_field item "class") with
            | Some t, Some c -> go ((t, c) :: acc) rest
            | _ ->
                field_error "isolation"
                  "each entry must be {\"task\": int, \"class\": int}")
      in
      go [] items
  | Some _ -> field_error "isolation" "must be an array of class objects"

(* Encoded only when present/non-empty, so requests without the
   heterogeneity extension keep their historical byte-exact encodings. *)
let hetero_fields ~platform ~pins ~isolation =
  (match platform with Some n -> [ ("platform", Json.Str n) ] | None -> [])
  @ (match pins with
    | [] -> []
    | pins ->
        [
          ( "pins",
            Json.Arr
              (List.map
                 (fun (t, pin) ->
                   let t = Json.Num (float_of_int t) in
                   match pin with
                   | Constraints.To_pe p ->
                       Json.Obj
                         [ ("task", t); ("pe", Json.Num (float_of_int p)) ]
                   | Constraints.To_kind k ->
                       Json.Obj
                         [ ("task", t); ("kind", Json.Num (float_of_int k)) ])
                 pins) );
        ])
  @
  match isolation with
  | [] -> []
  | iso ->
      [
        ( "isolation",
          Json.Arr
            (List.map
               (fun (t, c) ->
                 Json.Obj
                   [
                     ("task", Json.Num (float_of_int t));
                     ("class", Json.Num (float_of_int c));
                   ])
               iso) );
      ]

let decode_schedule obj =
  let* bench_s = req_get obj "bench" Json.get_str ~default:"Bm1" ~what:"must be a string" in
  let* bench = bench_of_name bench_s in
  let* policy_s =
    req_get obj "policy" Json.get_str ~default:"thermal" ~what:"must be a string"
  in
  let* policy =
    match Policy.of_name policy_s with
    | Some p -> Ok p
    | None -> field_error "policy" (Printf.sprintf "unknown policy %S" policy_s)
  in
  let* arch_s =
    req_get obj "arch" Json.get_str ~default:"platform" ~what:"must be a string"
  in
  let* arch =
    match arch_s with
    | "platform" -> Ok Platform
    | "cosynth" -> Ok Cosynth
    | other ->
        field_error "arch"
          (Printf.sprintf "unknown architecture %S (want platform|cosynth)" other)
  in
  let* n_pes = n_pes_field obj ~default:4 in
  let* platform = decode_platform obj in
  let* pins = decode_pins obj in
  let* isolation = decode_isolation obj in
  if arch = Cosynth && (platform <> None || pins <> [] || isolation <> []) then
    field_error "arch" "platform/pins/isolation require the platform architecture"
  else Ok { bench; policy; arch; n_pes; platform; pins; isolation }

let decode_transient obj =
  let* sched = decode_schedule obj in
  let* periods = int_field obj "periods" ~default:50 in
  if periods < 2 then field_error "periods" "must be >= 2"
  else
    let* dt =
      match Json.mem "dt" obj with
      | None -> Ok None
      | Some v -> (
          match Json.num v with
          | Some d when d > 0.0 -> Ok (Some d)
          | _ -> field_error "dt" "must be a positive number")
    in
    let* time_unit =
      req_get obj "time_unit" Json.get_num ~default:1e-3 ~what:"must be a number"
    in
    if time_unit <= 0.0 then field_error "time_unit" "must be positive"
    else
      let* exact =
        req_get obj "exact" Json.get_bool ~default:false ~what:"must be a boolean"
      in
      Ok { sched; periods; dt; time_unit; exact }

let decode_inquiry obj =
  let* power =
    match Json.mem "power" obj with
    | Some v -> (
        match Json.float_array v with
        | Some a when Array.length a > 0 && Array.for_all Float.is_finite a ->
            Ok a
        | _ -> field_error "power" "must be a non-empty array of finite numbers")
    | None -> field_error "power" "required"
  in
  let* n_pes = n_pes_field obj ~default:(Array.length power) in
  if n_pes <> Array.length power then
    field_error "n_pes" "must equal the length of \"power\""
  else
    let* idle =
      match Json.mem "idle" obj with
      | None -> Ok (Array.make n_pes 0.0)
      | Some v -> (
          match Json.float_array v with
          | Some a when Array.length a = n_pes && Array.for_all Float.is_finite a
            ->
              Ok a
          | _ ->
              field_error "idle"
                "must be an array of finite numbers, one per PE")
    in
    Ok { n_pes; power; idle }

let decode_online obj =
  let* bench_s = req_get obj "bench" Json.get_str ~default:"Bm1" ~what:"must be a string" in
  let* o_bench = bench_of_name bench_s in
  let* policy_s =
    req_get obj "policy" Json.get_str ~default:"thermal" ~what:"must be a string"
  in
  let* policy =
    match Online.policy_of_name policy_s with
    | Some p -> Ok p
    | None ->
        field_error "policy"
          (Printf.sprintf "unknown online policy %S (want baseline|h1|h2|h3|thermal|reactive)"
             policy_s)
  in
  let* o_policy =
    match Json.mem "trigger" obj with
    | None -> Ok policy
    | Some v -> (
        match (policy, Json.num v) with
        | Online.Reactive r, Some t when t > 0.0 && Float.is_finite t ->
            Ok (Online.Reactive { r with Online.trigger = t })
        | Online.Reactive _, _ -> field_error "trigger" "must be a positive number"
        | Online.Mirror _, _ ->
            field_error "trigger" "only meaningful with the reactive policy")
  in
  let* arrivals_s =
    req_get obj "arrivals" Json.get_str ~default:"sporadic" ~what:"must be a string"
  in
  let* o_arrivals =
    match arrivals_s with
    | "zero" -> Ok Zero
    | "sporadic" -> Ok Sporadic
    | "trace" -> Ok Trace
    | other ->
        field_error "arrivals"
          (Printf.sprintf "unknown arrival stream %S (want zero|sporadic|trace)" other)
  in
  let* o_seed = int_field obj "seed" ~default:1 in
  let* o_mean_gap =
    req_get obj "mean_gap" Json.get_num ~default:25.0 ~what:"must be a number"
  in
  if not (o_mean_gap > 0.0 && Float.is_finite o_mean_gap) then
    field_error "mean_gap" "must be a positive number"
  else
    let* o_n_pes = n_pes_field obj ~default:4 in
    let* o_platform = decode_platform obj in
    let* o_pins = decode_pins obj in
    let* o_isolation = decode_isolation obj in
    Ok
      {
        o_bench;
        o_n_pes;
        o_policy;
        o_arrivals;
        o_seed;
        o_mean_gap;
        o_platform;
        o_pins;
        o_isolation;
      }

let request_of_json json =
  match json with
  | Json.Obj _ ->
      let id = Json.mem "id" json in
      let* deadline_ms =
        match Json.mem "deadline_ms" json with
        | None -> Ok None
        | Some v -> (
            match Json.num v with
            | Some d when d >= 0.0 && Float.is_finite d -> Ok (Some d)
            | _ -> field_error "deadline_ms" "must be a non-negative number")
      in
      let* kind_s =
        match Json.mem "kind" json with
        | Some v -> (
            match Json.str v with
            | Some s -> Ok s
            | None -> field_error "kind" "must be a string")
        | None -> field_error "kind" "required"
      in
      let* kind =
        match kind_s with
        | "ping" -> Ok Ping
        | "stats" -> Ok Stats
        | "shutdown" -> Ok Shutdown
        | "schedule" ->
            let* p = decode_schedule json in
            Ok (Schedule p)
        | "inquiry" ->
            let* p = decode_inquiry json in
            Ok (Inquiry p)
        | "transient" ->
            let* p = decode_transient json in
            Ok (Transient p)
        | "online" ->
            let* p = decode_online json in
            Ok (Online p)
        | "sleep" ->
            let* ms =
              req_get json "ms" Json.get_num ~default:0.0 ~what:"must be a number"
            in
            if ms < 0.0 || ms > 60_000.0 then
              field_error "ms" "must be in [0, 60000]"
            else Ok (Sleep (ms /. 1000.0))
        | other -> field_error "kind" (Printf.sprintf "unknown kind %S" other)
      in
      Ok { id; deadline_ms; kind }
  | _ -> Error "request must be a JSON object"

(* --- encoding ----------------------------------------------------------- *)

let request_to_json { id; deadline_ms; kind } =
  let base = [ ("kind", Json.Str (kind_name kind)) ] in
  let base = match id with Some v -> ("id", v) :: base | None -> base in
  let base =
    match deadline_ms with
    | Some d -> base @ [ ("deadline_ms", Json.Num d) ]
    | None -> base
  in
  let params =
    let sched (p : schedule_params) =
      [
        ("bench", Json.Str (bench_name p.bench));
        ("policy", Json.Str (Policy.name p.policy));
        ("arch", Json.Str (arch_name p.arch));
        ("n_pes", Json.Num (float_of_int p.n_pes));
      ]
      @ hetero_fields ~platform:p.platform ~pins:p.pins ~isolation:p.isolation
    in
    match kind with
    | Ping | Stats | Shutdown -> []
    | Sleep s -> [ ("ms", Json.Num (s *. 1000.0)) ]
    | Schedule p -> sched p
    | Inquiry p ->
        [
          ("n_pes", Json.Num (float_of_int p.n_pes));
          ("power", Json.Arr (Array.to_list (Array.map (fun f -> Json.Num f) p.power)));
          ("idle", Json.Arr (Array.to_list (Array.map (fun f -> Json.Num f) p.idle)));
        ]
    | Transient p ->
        sched p.sched
        @ [
            ("periods", Json.Num (float_of_int p.periods));
            ("time_unit", Json.Num p.time_unit);
            ("exact", Json.Bool p.exact);
          ]
        @ (match p.dt with Some d -> [ ("dt", Json.Num d) ] | None -> [])
    | Online p ->
        [
          ("bench", Json.Str (bench_name p.o_bench));
          ("policy", Json.Str (Online.policy_name p.o_policy));
          ("arrivals", Json.Str (online_arrivals_name p.o_arrivals));
          ("seed", Json.Num (float_of_int p.o_seed));
          ("mean_gap", Json.Num p.o_mean_gap);
          ("n_pes", Json.Num (float_of_int p.o_n_pes));
        ]
        @ (match p.o_policy with
          | Online.Reactive r -> [ ("trigger", Json.Num r.Online.trigger) ]
          | Online.Mirror _ -> [])
        @ hetero_fields ~platform:p.o_platform ~pins:p.o_pins
            ~isolation:p.o_isolation
  in
  Json.Obj (base @ params)

(* --- replies ------------------------------------------------------------ *)

type error_code = Bad_request | Overloaded | Deadline | Shutting_down | Internal

let error_code_name = function
  | Bad_request -> "bad_request"
  | Overloaded -> "overloaded"
  | Deadline -> "deadline"
  | Shutting_down -> "shutting_down"
  | Internal -> "internal"

let with_id id members =
  match id with Some v -> ("id", v) :: members | None -> members

let ok_reply ?id ~kind payload =
  Json.Obj (with_id id (("ok", Json.Bool true) :: ("kind", Json.Str kind) :: payload))

let error_reply ?id code message =
  Json.Obj
    (with_id id
       [
         ("ok", Json.Bool false);
         ( "error",
           Json.Obj
             [
               ("code", Json.Str (error_code_name code));
               ("message", Json.Str message);
             ] );
       ])

let reply_ok reply =
  match Json.mem "ok" reply with Some (Json.Bool b) -> b | _ -> false

let reply_error reply =
  match Json.mem "error" reply with
  | Some err -> (
      match (Json.mem "code" err, Json.mem "message" err) with
      | Some (Json.Str code), Some (Json.Str msg) -> Some (code, msg)
      | Some (Json.Str code), _ -> Some (code, "")
      | _ -> None)
  | None -> None
