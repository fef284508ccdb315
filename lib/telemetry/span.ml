(* Wall-clock spans, per domain.

   Every domain owns one track and is its only writer, so recording
   takes no lock.  A track keeps one record: its spans in record order,
   each as measured and with whether it was outermost.  Every reading —
   per-(layer, name) totals, outermost coverage, the export — is a fold
   over that record, which applies the per-layer clamp as it goes.  The
   span list only ever grows by prepending, so a reader folds it as
   last published.

   Unlike [Tracer] (simulated clock), these are real wall-clock
   intervals, off unless something will read them. *)

let verbose_flag = Sys.getenv_opt "CKPT_VERBOSE" = Some "1"

let out_path = Provenance.env_path "CKPT_SPANS_OUT"

let enabled_flag = Atomic.make (verbose_flag || out_path <> None)
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b
let verbose () = verbose_flag
let now = Unix.gettimeofday

(* -- tracks ----------------------------------------------------------------- *)

type span = { sp_layer : string; sp_name : string; sp_t0 : float; sp_t1 : float }

(* A span as measured.  [seq] is its index on its track, so the newest
   entry also tells how many spans the track holds. *)
type entry = { span : span; top : bool; seq : int }

type state = {
  t_name : string;
  generation : int;
  mutable spans : entry list;  (* newest first *)
  mutable depth : int;  (* [time] spans open on this domain *)
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
            { t_name = name; generation = Atomic.get generation; spans = []; depth = 0 }
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

let count t = match t.spans with [] -> 0 | e :: _ -> e.seq + 1

let add t ~layer name ~top ~t0 ~t1 =
  let span = { sp_layer = layer; sp_name = name; sp_t0 = t0; sp_t1 = t1 } in
  t.spans <- { span; top; seq = count t } :: t.spans

let record ~layer name ~t0 ~t1 =
  if Atomic.get enabled_flag then begin
    let t = current () in
    add t ~layer name ~top:(t.depth = 0) ~t0 ~t1
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
      add t ~layer name ~top:(depth = 0) ~t0 ~t1:(now ())
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

type track = { track : string; totals : total list; top_seconds : float; window : float }

let by_key a b = compare (a.layer, a.name) (b.layer, b.name)

type mark = { at : float; owner : state option; counts : (state * int) list }

let mark () =
  {
    at = now ();
    owner = (if enabled () then Some (current ()) else None);
    counts = List.map (fun t -> (t, count t)) (all_states ());
  }

(* Fold [f acc ~top ~start span] over a track's spans recorded after
   the mark (all of them without one), oldest first.  [span] is clamped
   monotone within its layer: a stepped clock cannot make it negative,
   and a span nested in another of the same layer truncates the
   encloser's start instead of being counted twice.  [start] is the
   span's measured start, which outermost coverage needs whole.  Both
   are clipped at the mark. *)
let fold ?since t f init =
  let from, at =
    match since with
    | None -> (0, neg_infinity)
    | Some m -> (Option.value ~default:0 (List.assq_opt t m.counts), m.at)
  in
  let rec after acc = function e :: rest when e.seq >= from -> after (e :: acc) rest | _ -> acc in
  let clocks = Hashtbl.create 8 in
  List.fold_left
    (fun acc { span = sp; top; _ } ->
      let start = Float.max sp.sp_t0 at in
      let clock = Option.value ~default:at (Hashtbl.find_opt clocks sp.sp_layer) in
      let t0 = Float.max start clock in
      let t1 = Float.max sp.sp_t1 t0 in
      Hashtbl.replace clocks sp.sp_layer t1;
      f acc ~top ~start { sp with sp_t0 = t0; sp_t1 = t1 })
    init (after [] t.spans)

(* Each (layer, name) sums its spans in record order.  Outermost spans
   never nest, so their own clock only guards against a stepped wall
   clock.  The window runs from the earliest measured start to the
   latest end. *)
let summary ?since (t : state) =
  let cells = Hashtbl.create 16 in
  let top_clock = ref neg_infinity and top_seconds = ref 0. in
  let first = ref infinity and last = ref neg_infinity in
  fold ?since t
    (fun () ~top ~start sp ->
      let key = (sp.sp_layer, sp.sp_name) in
      let seconds = sp.sp_t1 -. sp.sp_t0 in
      (match Hashtbl.find_opt cells key with
      | Some c ->
          Hashtbl.replace cells key
            { c with seconds = c.seconds +. seconds; count = c.count + 1; last = sp.sp_t1 }
      | None ->
          Hashtbl.add cells key
            { layer = sp.sp_layer; name = sp.sp_name; seconds; count = 1; first = sp.sp_t0;
              last = sp.sp_t1 });
      if top then begin
        let s = Float.max start !top_clock in
        let e = Float.max sp.sp_t1 s in
        top_clock := e;
        top_seconds := !top_seconds +. (e -. s)
      end;
      first := Float.min !first start;
      last := Float.max !last sp.sp_t1)
    ();
  {
    track = t.t_name;
    totals = List.sort by_key (Hashtbl.fold (fun _ c acc -> c :: acc) cells []);
    top_seconds = !top_seconds;
    window = Float.max 0. (!last -. !first);
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

(* The owner's outermost spans against the scope's wall time, then
   every other track that recorded during the scope against its own
   window. *)
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
        let attribution t ~over seconds =
          Printf.eprintf "[spans] %s: attribution %.2f s of %.2f s %s (%.1f%%) on track %s\n" label
            t.top_seconds seconds over
            (100. *. t.top_seconds /. Float.max seconds 1e-9)
            t.track
        in
        let owner = Option.map (fun o -> o.t_name) m.owner in
        List.iter (fun t -> if Some t.track = owner then attribution t ~over:"wall" wall) ts;
        List.iter
          (fun t ->
            if Some t.track <> owner && t.totals <> [] then attribution t ~over:"window" t.window)
          ts;
        flush stderr)
  end

(* -- export ------------------------------------------------------------------ *)

let recent () =
  List.map
    (fun t -> (t.t_name, List.rev (fold t (fun acc ~top:_ ~start:_ sp -> sp :: acc) [])))
    (all_states ())

let chrome named =
  let epoch =
    List.fold_left
      (fun acc (_, sps) -> List.fold_left (fun a s -> Float.min a s.sp_t0) acc sps)
      infinity named
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
       named)

let write_chrome ~path = Ckpt_store.Atomic_file.write ~fsync:false ~path (chrome (recent ()))

let () =
  Option.iter
    (fun path ->
      at_exit (fun () ->
          let named = recent () in
          if List.exists (fun (_, sps) -> sps <> []) named then begin
            write_chrome ~path;
            Printf.eprintf "[spans] wrote %d track(s) to %s\n%!" (List.length named) path
          end))
    out_path
