(* Child processes as the harness measures them: wall time from spawn to
   exit, user + system CPU of the child and everything it waited for,
   the child's peak resident set (VmHWM, polled while it runs), and its
   standard output as lines stamped with their arrival time. *)

type t = {
  status : Unix.process_status;
  wall : float;
  cpu : float;
  peak_kb : int;
  lines : (float * string) list;  (** (seconds since spawn, line), in order *)
}

exception Deadline

let children_cpu () =
  let t = Unix.times () in
  t.Unix.tms_cutime +. t.Unix.tms_cstime

let read_file path =
  In_channel.with_open_bin path In_channel.input_all

let vm_hwm_kb pid =
  match read_file (Printf.sprintf "/proc/%d/status" pid) with
  | exception Sys_error _ -> None
  | status ->
      String.split_on_char '\n' status
      |> List.find_map (fun line ->
             if String.starts_with ~prefix:"VmHWM:" line then
               Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id
             else None)

let parent_of pid =
  match read_file (Printf.sprintf "/proc/%d/stat" pid) with
  | exception Sys_error _ -> None
  | stat -> (
      (* "pid (comm) state ppid ...": comm may hold spaces, so split
         after its closing parenthesis. *)
      match String.rindex_opt stat ')' with
      | None -> None
      | Some i -> (
          match String.split_on_char ' ' (String.sub stat (i + 2) (String.length stat - i - 2)) with
          | _state :: ppid :: _ -> int_of_string_opt ppid
          | _ -> None))

let rec descendants pid =
  let children =
    Sys.readdir "/proc" |> Array.to_list
    |> List.filter_map (fun d ->
           Option.bind (int_of_string_opt d) (fun p ->
               if parent_of p = Some pid then Some p else None))
  in
  children @ List.concat_map descendants children

(* Kill [pid] and every process below it (sweep workers are the
   grandchildren), reap [pid], and wait a bounded time for the
   re-parented descendants to disappear. *)
let kill_tree pid =
  let below = descendants pid in
  List.iter (fun p -> try Unix.kill p Sys.sigkill with Unix.Unix_error _ -> ()) (pid :: below);
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  let until = Unix.gettimeofday () +. 5. in
  while
    List.exists (fun p -> Sys.file_exists (Printf.sprintf "/proc/%d" p)) below
    && Unix.gettimeofday () < until
  do
    Unix.sleepf 0.05
  done

let poll = 0.005

(* [watch] is called with the seconds since spawn at every poll while
   the child runs. *)
let run ?(watch = ignore) ~env ~deadline argv =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let cpu0 = children_cpu () in
  let t0 = Unix.gettimeofday () in
  let pid = Unix.create_process_env argv.(0) argv env Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let chunk = Bytes.create 65536 in
  let pending = Buffer.create 256 in
  let lines = ref [] in
  let eof = ref false in
  let read_available timeout =
    if !eof then Unix.sleepf timeout
    else
      match Unix.select [ rd ] [] [] timeout with
      | [], _, _ -> ()
      | _ ->
          let n = Unix.read rd chunk 0 (Bytes.length chunk) in
          if n = 0 then eof := true
          else begin
            let at = Unix.gettimeofday () -. t0 in
            for i = 0 to n - 1 do
              match Bytes.get chunk i with
              | '\n' ->
                  lines := (at, Buffer.contents pending) :: !lines;
                  Buffer.clear pending
              | c -> Buffer.add_char pending c
            done
          end
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  in
  let status = ref None in
  let peak = ref 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close rd;
      if Option.is_none !status then kill_tree pid)
    (fun () ->
      while Option.is_none !status do
        read_available poll;
        watch (Unix.gettimeofday () -. t0);
        Option.iter (fun kb -> peak := max !peak kb) (vm_hwm_kb pid);
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> if Unix.gettimeofday () > deadline then raise Deadline
        | _, st -> status := Some st
      done;
      let wall = Unix.gettimeofday () -. t0 in
      (* Only the child holds the pipe's write end, so it reads to EOF
         once the child is gone. *)
      while not !eof do
        read_available poll
      done;
      if Buffer.length pending > 0 then lines := (wall, Buffer.contents pending) :: !lines;
      {
        status = Option.get !status;
        wall;
        cpu = children_cpu () -. cpu0;
        peak_kb = !peak;
        lines = List.rev !lines;
      })

let ok p = p.status = Unix.WEXITED 0
