(* Wall-clock spans, per domain.

   Every domain owns one track and is its only writer, so recording
   takes no lock: the track's cells hold the exact per-(layer, name)
   totals, and a ring keeps the most recent spans for export.  Readers
   take the track list under the registry lock and the cell list as
   last published (it only ever grows by prepending).

   Unlike [Tracer] (simulated clock), these are real wall-clock
   intervals, off unless something will read them. *)

let verbose_flag = Sys.getenv_opt "CKPT_VERBOSE" = Some "1"

let out_path =
  match Sys.getenv_opt "CKPT_SPANS_OUT" with Some "" | None -> None | Some p -> Some p

let enabled_flag = Atomic.make (verbose_flag || out_path <> None)
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b
let verbose () = verbose_flag
let now = Unix.gettimeofday

(* -- tracks ----------------------------------------------------------------- *)

type span = { sp_layer : string; sp_name : string; sp_t0 : float; sp_t1 : float }

type cell = {
  c_layer : string;
  c_name : string;
  clock : float ref;  (* end of the layer's latest span; shared by the layer's cells *)
  mutable seconds : float;
  mutable count : int;
  mutable first : float;
  mutable last : float;
}

let ring_capacity = 1 lsl 15
let blank = { sp_layer = ""; sp_name = ""; sp_t0 = 0.; sp_t1 = 0. }

type state = {
  t_name : string;
  generation : int;
  mutable cells : cell list;  (* newest first *)
  mutable ring : span array;  (* doubles up to [ring_capacity], then wraps *)
  mutable written : int;  (* the ring holds the last [min written ring_capacity] *)
  mutable depth : int;  (* [time] spans open on this domain *)
  mutable top_seconds : float;
  mutable top_clock : float;
}

let registry : state list ref = ref []  (* newest first *)
let registry_lock = Mutex.create ()

(* [reset] bumps the generation, so each domain re-registers on its
   next record instead of writing to a forgotten track. *)
let generation = Atomic.make 0

let lookup name =
  Mutex.protect registry_lock (fun () ->
      match List.find_opt (fun t -> t.t_name = name) !registry with
      | Some t -> t
      | None ->
          let t =
            {
              t_name = name;
              generation = Atomic.get generation;
              cells = [];
              ring = Array.make 64 blank;
              written = 0;
              depth = 0;
              top_seconds = 0.;
              top_clock = neg_infinity;
            }
          in
          registry := t :: !registry;
          t)

let all_states () = Mutex.protect registry_lock (fun () -> List.rev !registry)

type slot = { mutable slot_name : string option; mutable slot_track : state option }

let slot_key = Domain.DLS.new_key (fun () -> { slot_name = None; slot_track = None })
let external_seq = Atomic.make 0

let current () =
  let slot = Domain.DLS.get slot_key in
  match slot.slot_track with
  | Some t when t.generation = Atomic.get generation -> t
  | _ ->
      let name =
        match slot.slot_name with
        | Some n -> n
        | None ->
            let n = Printf.sprintf "external%d" (Atomic.fetch_and_add external_seq 1) in
            slot.slot_name <- Some n;
            n
      in
      let t = lookup name in
      slot.slot_track <- Some t;
      t

let name_track name =
  let slot = Domain.DLS.get slot_key in
  slot.slot_name <- Some name;
  slot.slot_track <- None

let reset () =
  Mutex.protect registry_lock (fun () ->
      registry := [];
      Atomic.incr generation)

(* -- recording (owner domain only) ------------------------------------------ *)

let cell t ~layer name =
  let in_layer c = String.equal c.c_layer layer in
  match List.find_opt (fun c -> String.equal c.c_name name && in_layer c) t.cells with
  | Some c -> c
  | None ->
      let clock =
        match List.find_opt in_layer t.cells with Some c -> c.clock | None -> ref neg_infinity
      in
      let c =
        { c_layer = layer; c_name = name; clock; seconds = 0.; count = 0; first = 0.; last = 0. }
      in
      t.cells <- c :: t.cells;
      c

let add t c ~top ~t0 ~t1 =
  (* Outermost spans never nest, so their own clock only guards
     against a stepped wall clock. *)
  if top then begin
    let s = Float.max t0 t.top_clock in
    let e = Float.max t1 s in
    t.top_clock <- e;
    t.top_seconds <- t.top_seconds +. (e -. s)
  end;
  let t0 = Float.max t0 !(c.clock) in
  let t1 = Float.max t1 t0 in
  c.clock := t1;
  if c.count = 0 then c.first <- t0;
  c.last <- t1;
  c.seconds <- c.seconds +. (t1 -. t0);
  c.count <- c.count + 1;
  let size = Array.length t.ring in
  if t.written = size && size < ring_capacity then
    t.ring <- Array.append t.ring (Array.make (min size (ring_capacity - size)) blank);
  t.ring.(t.written mod Array.length t.ring) <-
    { sp_layer = c.c_layer; sp_name = c.c_name; sp_t0 = t0; sp_t1 = t1 };
  t.written <- t.written + 1

let record ~layer name ~t0 ~t1 =
  if Atomic.get enabled_flag then begin
    let t = current () in
    add t (cell t ~layer name) ~top:(t.depth = 0) ~t0 ~t1
  end

let time ~layer name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let t = current () in
    let depth = t.depth in
    t.depth <- depth + 1;
    let t0 = now () in
    let finish () =
      t.depth <- depth;
      add t (cell t ~layer name) ~top:(depth = 0) ~t0 ~t1:(now ())
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        finish ();
        Printexc.raise_with_backtrace e bt
  end

(* -- reading ----------------------------------------------------------------- *)

type total = {
  layer : string;
  name : string;
  seconds : float;
  count : int;
  first : float;
  last : float;
}

type track = { track : string; totals : total list; top_seconds : float; dropped : int }

let by_key a b = compare (a.layer, a.name) (b.layer, b.name)

type mark = {
  at : float;
  owner : state option;
  cells_at : (cell * (float * int)) list;
  tops_at : (state * float) list;
}

let mark () =
  let states = all_states () in
  {
    at = now ();
    owner = (if enabled () then Some (current ()) else None);
    cells_at =
      List.concat_map
        (fun t -> List.map (fun (c : cell) -> (c, (c.seconds, c.count))) t.cells)
        states;
    tops_at = List.map (fun (t : state) -> (t, t.top_seconds)) states;
  }

(* A track's totals, less what it had at the mark. *)
let summary ?since (t : state) =
  let at field key zero =
    Option.value ~default:zero (Option.bind since (fun m -> List.assq_opt key (field m)))
  in
  {
    track = t.t_name;
    totals =
      List.filter_map
        (fun c ->
          let seconds, count = at (fun m -> m.cells_at) c (0., 0) in
          if c.count = count then None
          else
            Some
              {
                layer = c.c_layer;
                name = c.c_name;
                seconds = c.seconds -. seconds;
                count = c.count - count;
                first = c.first;
                last = c.last;
              })
        t.cells
      |> List.sort by_key;
    top_seconds = t.top_seconds -. at (fun m -> m.tops_at) t 0.;
    dropped = max 0 (t.written - ring_capacity);
  }

let tracks ?since () = List.map (summary ?since) (all_states ())

let merge tracks =
  List.concat_map (fun t -> t.totals) tracks
  |> List.stable_sort by_key
  |> List.fold_left
       (fun acc x ->
         match acc with
         | y :: rest when by_key x y = 0 ->
             {
               y with
               seconds = y.seconds +. x.seconds;
               count = y.count + x.count;
               first = Float.min y.first x.first;
               last = Float.max y.last x.last;
             }
             :: rest
         | _ -> x :: acc)
       []
  |> List.rev

(* One line per layer, largest first, each followed by its names.  A
   layer's seconds include the layers nested in it. *)
let pp_totals ppf totals =
  let largest_first rows = List.sort (fun (_, a, _) (_, b, _) -> Float.compare b a) rows in
  let sum xs = List.fold_left (fun (s, n) x -> (s +. x.seconds, n + x.count)) (0., 0) xs in
  if totals = [] then Format.fprintf ppf "(no spans recorded)@.";
  List.sort_uniq String.compare (List.map (fun x -> x.layer) totals)
  |> List.map (fun l ->
         let seconds, count = sum (List.filter (fun x -> x.layer = l) totals) in
         (l, seconds, count))
  |> largest_first
  |> List.iter (fun (l, seconds, count) ->
         Format.fprintf ppf "%-28s %9.3f s %8d spans@." l seconds count;
         List.filter (fun x -> x.layer = l) totals
         |> List.map (fun x -> (x.name, x.seconds, x.count))
         |> largest_first
         |> List.iter (fun (name, seconds, count) ->
                Format.fprintf ppf "  %-26s %9.3f s %8d@." name seconds count))

let scope ~label f =
  if not verbose_flag then f ()
  else begin
    let m = mark () in
    Fun.protect f ~finally:(fun () ->
        let wall = now () -. m.at in
        let ts = tracks ~since:m () in
        Printf.eprintf "[spans] %s: %.2f s wall; per-layer totals summed over %d domain track(s)\n"
          label wall (List.length ts);
        String.split_on_char '\n' (Format.asprintf "%a" pp_totals (merge ts))
        |> List.iter (fun line -> if line <> "" then Printf.eprintf "[spans]   %s\n" line);
        Option.iter
          (fun o ->
            let covered = (summary ~since:m o).top_seconds in
            Printf.eprintf "[spans] %s: attribution %.2f s of %.2f s wall (%.1f%%) on track %s\n"
              label covered wall
              (100. *. covered /. Float.max wall 1e-9)
              o.t_name)
          m.owner;
        flush stderr)
  end

(* -- export ------------------------------------------------------------------ *)

let ring t =
  let size = Array.length t.ring in
  let len = min t.written size in
  List.init len (fun i -> t.ring.((t.written - len + i) mod size))

let recent () = List.map (fun t -> (t.t_name, ring t)) (all_states ())

let chrome rings =
  let epoch =
    List.fold_left
      (fun acc (_, sps) -> List.fold_left (fun a s -> Float.min a s.sp_t0) acc sps)
      infinity rings
  in
  Json.chrome_trace
    (List.map
       (fun (name, sps) ->
         ( name,
           List.map
             (fun s ->
               {
                 Json.ev_name = s.sp_name;
                 ev_cat = s.sp_layer;
                 ts = s.sp_t0 -. epoch;
                 dur = (if s.sp_t1 > s.sp_t0 then Some (s.sp_t1 -. s.sp_t0) else None);
                 args = [];
               })
             sps ))
       rings)

let write_chrome ~path = Ckpt_store.Atomic_file.write ~fsync:false ~path (chrome (recent ()))

let () =
  Option.iter
    (fun path ->
      at_exit (fun () ->
          let ts = tracks () in
          if List.exists (fun t -> t.totals <> []) ts then begin
            write_chrome ~path;
            let dropped = List.fold_left (fun n t -> n + t.dropped) 0 ts in
            Printf.eprintf "[spans] wrote %d track(s) to %s%s\n%!" (List.length ts) path
              (if dropped > 0 then Printf.sprintf " (%d older spans dropped)" dropped else "")
          end))
    out_path
