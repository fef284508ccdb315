(* A process-global metrics registry: named counters and gauges, shared
   by every layer of the stack (DP solvers, trace cache, engine,
   evaluation harness, sweep store).  Wall-clock time is not a metric:
   it is recorded as [Span]s.

   The registry follows the same contract as the rest of the telemetry
   layer: *off by default*, switched on by whatever reads it, and every
   update entry point costs exactly one [Atomic.get] branch when
   disabled, so instrumenting a hot loop is free in normal runs.  Reads
   ({!snapshot}, {!find}) work regardless of the enabled flag. *)

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

(* -- registry cells ------------------------------------------------------- *)

type counter = int Atomic.t
type gauge = float Atomic.t
type metric = M_counter of counter | M_gauge of gauge
type value = Counter of int | Gauge of float

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let registry_lock = Mutex.create ()
let locked f = Mutex.protect registry_lock f

let register name make extract =
  locked (fun () ->
      match Hashtbl.find_opt registry name with
      | Some m -> (
          match extract m with
          | Some cell -> cell
          | None -> invalid_arg (Printf.sprintf "Metrics: %S registered with another kind" name))
      | None ->
          let cell, m = make () in
          Hashtbl.add registry name m;
          cell)

let counter name =
  register name
    (fun () ->
      let c = Atomic.make 0 in
      (c, M_counter c))
    (function M_counter c -> Some c | _ -> None)

let gauge name =
  register name
    (fun () ->
      let g = Atomic.make nan in
      (g, M_gauge g))
    (function M_gauge g -> Some g | _ -> None)

(* -- updates (one branch when disabled) ----------------------------------- *)

let incr c = if Atomic.get enabled_flag then ignore (Atomic.fetch_and_add c 1)
let add c n = if Atomic.get enabled_flag then ignore (Atomic.fetch_and_add c n)
let set g v = if Atomic.get enabled_flag then Atomic.set g v

(* -- reads ---------------------------------------------------------------- *)

let value_of = function
  | M_counter c -> Counter (Atomic.get c)
  | M_gauge g -> Gauge (Atomic.get g)

let find name = Option.map value_of (locked (fun () -> Hashtbl.find_opt registry name))

let snapshot () =
  locked (fun () -> Hashtbl.fold (fun name m acc -> (name, value_of m) :: acc) registry [])
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let reset_metric = function
  | M_counter c -> Atomic.set c 0
  | M_gauge g -> Atomic.set g nan

let reset ?prefix () =
  locked (fun () ->
      Hashtbl.iter
        (fun name m ->
          match prefix with
          | Some prefix when not (String.starts_with ~prefix name) -> ()
          | _ -> reset_metric m)
        registry)

(* -- rendering ------------------------------------------------------------ *)

let pp_value fmt = function
  | Counter n -> Format.fprintf fmt "%d" n
  | Gauge v -> if Float.is_nan v then Format.fprintf fmt "unset" else Format.fprintf fmt "%g" v

let nonempty = function Counter n -> n <> 0 | Gauge v -> not (Float.is_nan v)

let pp_snapshot fmt entries =
  let entries = List.filter (fun (_, v) -> nonempty v) entries in
  if entries = [] then Format.fprintf fmt "(no metrics recorded)@."
  else begin
    let width =
      List.fold_left (fun acc (name, _) -> max acc (String.length name)) 0 entries
    in
    List.iter
      (fun (name, v) -> Format.fprintf fmt "%-*s  %a@." width name pp_value v)
      entries
  end
