module Catalog = Tats_techlib.Catalog
module Platform = Tats_techlib.Platform
module Flow = Tats_cosynth.Flow
module Hotspot = Tats_thermal.Hotspot
module Inquiry = Tats_thermal.Inquiry

type t = {
  mutex : Mutex.t;
  table : (string, Hotspot.t) Hashtbl.t;
}

let create () = { mutex = Mutex.create (); table = Hashtbl.create 8 }

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* Platforms reach the registry only from the catalog (the builtins and
   [Catalog.std n]), whose names identify their geometry; the facade is
   the one Flow.run_platform would build itself, so served results carry
   the same floats as a one-shot run. *)
let facade t platform =
  let key = Platform.name platform in
  with_lock t @@ fun () ->
  match Hashtbl.find_opt t.table key with
  | Some h -> h
  | None ->
      let h = Flow.platform_hotspot platform in
      Hashtbl.add t.table key h;
      h

let platform t ~n_pes = facade t (Catalog.std n_pes)

let count t = with_lock t @@ fun () -> Hashtbl.length t.table

let fingerprints t =
  with_lock t @@ fun () ->
  Hashtbl.fold (fun k _ acc -> k :: acc) t.table [] |> List.sort compare

type stats = { engines : int; inquiries : int; cache_hits : int }

let stats t =
  let hotspots = with_lock t @@ fun () ->
    Hashtbl.fold (fun _ h acc -> h :: acc) t.table []
  in
  List.fold_left
    (fun acc h ->
      let s = Hotspot.inquiry_stats h in
      {
        acc with
        inquiries = acc.inquiries + s.Inquiry.inquiries;
        cache_hits = acc.cache_hits + s.Inquiry.cache_hits;
      })
    { engines = List.length hotspots; inquiries = 0; cache_hits = 0 }
    hotspots

let hit_rate s =
  if s.inquiries = 0 then 0.0
  else float_of_int s.cache_hits /. float_of_int s.inquiries
