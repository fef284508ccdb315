(* Wall-clock spans recorded by the harness around its calls into the
   library, kept in memory and written out as a Chrome trace_event file
   when the traced run ends.  Domain-safe: stripes record from every
   domain of the pool. *)

module Json = Ckpt_telemetry.Json

type t = {
  name : string;
  cat : string;  (** the layer the span is attributed to *)
  tid : int;  (** recording domain *)
  start : float;
  stop : float;
  args : (string * Json.t) list;
}

let lock = Mutex.create ()
let recorded = ref []

let add span =
  Mutex.lock lock;
  recorded := span :: !recorded;
  Mutex.unlock lock

let all () =
  Mutex.lock lock;
  let spans = List.rev !recorded in
  Mutex.unlock lock;
  spans

let now = Unix.gettimeofday
let tid () = (Domain.self () :> int)

(* [time ~cat name f] runs [f] inside a span; [args] sees the result. *)
let time ?(args = fun _ -> []) ~cat name f =
  let start = now () in
  let v = f () in
  let stop = now () in
  add { name; cat; tid = tid (); start; stop; args = args v };
  v

let duration s = s.stop -. s.start

let total ?name ~cat spans =
  List.fold_left
    (fun acc s ->
      if s.cat = cat && Option.fold ~none:true ~some:(String.equal s.name) name then
        acc +. duration s
      else acc)
    0. spans

let chrome ~origin spans =
  let us t = Json.Num (Float.round ((t -. origin) *. 1e6)) in
  Json.Obj
    [
      ( "traceEvents",
        Json.Arr
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("name", Json.Str s.name);
                   ("cat", Json.Str s.cat);
                   ("ph", Json.Str "X");
                   ("pid", Json.Num 1.);
                   ("tid", Json.Num (float_of_int s.tid));
                   ("ts", us s.start);
                   ("dur", Json.Num (Float.round (duration s *. 1e6)));
                   ("args", Json.Obj s.args);
                 ])
             spans) );
      ("displayTimeUnit", Json.Str "ms");
    ]
