(* The server under test as a child process: spawn, readiness probe,
   statistics and reaping.

   Every spawned server is recorded until it has been waited for, and an
   [at_exit] hook plus SIGINT/SIGTERM/SIGHUP handlers reap whatever is
   left, so no exit path of the generator leaves a server running. *)

let live : (int * string) list ref = ref []

let read_line_timeout fd ~timeout_s =
  let buf = Buffer.create 64 and b = Bytes.create 4096 in
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0.0 then None
    else
      match Unix.select [ fd ] [] [] left with
      | [], _, _ -> go ()
      | _ -> (
        match Unix.read fd b 0 (Bytes.length b) with
        | 0 -> None
        | k ->
          Buffer.add_subbytes buf b 0 k;
          let s = Buffer.contents buf in
          (match String.index_opt s '\n' with
          | Some i -> Some (String.sub s 0 i)
          | None -> go ()))
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* One connect + request on a fresh connection; [None] when nothing
   listens on [socket] or no reply arrives in time. *)
let ask ~socket ~timeout_s line =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      match Unix.connect fd (Unix.ADDR_UNIX socket) with
      | exception Unix.Unix_error _ -> None
      | () -> (
        let l = line ^ "\n" in
        match Unix.write_substring fd l 0 (String.length l) with
        | exception Unix.Unix_error _ -> None
        | _ -> read_line_timeout fd ~timeout_s))

let wait_exit pid ~timeout_s =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if Unix.gettimeofday () > deadline then false
      else (Unix.sleepf 0.005; go ())
    | _ -> true
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* SHUTDOWN, then SIGTERM, then SIGKILL; always waits for the exit. *)
let reap pid =
  match List.assoc_opt pid !live with
  | None -> ()
  | Some socket ->
    ignore (ask ~socket ~timeout_s:2.0 "SHUTDOWN");
    if not (wait_exit pid ~timeout_s:5.0) then begin
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
      if not (wait_exit pid ~timeout_s:2.0) then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (wait_exit pid ~timeout_s:30.0)
      end
    end;
    live := List.remove_assoc pid !live;
    (try Unix.unlink socket with Unix.Unix_error _ -> ())

let reap_all () = List.iter (fun (pid, _) -> reap pid) !live

let () =
  at_exit reap_all;
  let on_signal code = Sys.Signal_handle (fun _ -> exit code) in
  Sys.set_signal Sys.sigint (on_signal 130);
  Sys.set_signal Sys.sigterm (on_signal 143);
  Sys.set_signal Sys.sighup (on_signal 129);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore

exception Busy of string

(* Refuse to start while a live server holds [socket]; a stale socket
   file (nothing accepting) is removed. *)
let claim socket =
  if Sys.file_exists socket then begin
    match ask ~socket ~timeout_s:2.0 "PING" with
    | Some _ -> raise (Busy socket)
    | None -> (try Unix.unlink socket with Unix.Unix_error _ -> ())
  end

(* Spawn the server ([argv]) and probe it with connect + PING at a fixed
   0.5 ms interval until it answers PONG.  Returns the pid and the seconds
   from spawn to the first PONG. *)
let spawn ~argv ~socket ~log =
  claim socket;
  let logfd =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644
  in
  (* The server's stdin: a pipe whose write end is already closed. *)
  let stdin_r, stdin_w = Unix.pipe ~cloexec:true () in
  Unix.close stdin_w;
  let t0 = Selest.Obs.Clock.now_ns () in
  Engine.default_timers ();
  let pid = Unix.create_process (List.hd argv) (Array.of_list argv) stdin_r logfd logfd in
  Engine.precise_timers ();
  Unix.close logfd;
  Unix.close stdin_r;
  live := (pid, socket) :: !live;
  let deadline = Unix.gettimeofday () +. 120.0 in
  let rec probe () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | p, _ when p = pid ->
      live := List.remove_assoc pid !live;
      failwith (Printf.sprintf "server exited during start-up (see %s)" log)
    | _ -> (
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      match Unix.connect fd (Unix.ADDR_UNIX socket) with
      | exception Unix.Unix_error _ ->
        Unix.close fd;
        if Unix.gettimeofday () > deadline then failwith "server start-up timed out";
        Unix.sleepf 0.0005;
        probe ()
      | () ->
        ignore (Unix.write_substring fd "PING\n" 0 5);
        let r = read_line_timeout fd ~timeout_s:10.0 in
        let t1 = Selest.Obs.Clock.now_ns () in
        Unix.close fd;
        if r <> Some "PONG" then failwith "server did not answer PING";
        float_of_int (t1 - t0) /. 1e9)
  in
  let setup = probe () in
  (pid, setup)

(* Peak resident set of a live process, in MiB. *)
let vm_hwm_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> nan
        | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
              float_of_int kb /. 1024.0)
        | _ -> go ()
      in
      go ())

(* [key=value] pairs of a STATS reply. *)
let stats_of reply =
  String.split_on_char ' ' reply
  |> List.filter_map (fun kv ->
         match String.index_opt kv '=' with
         | Some i ->
           Some (String.sub kv 0 i, String.sub kv (i + 1) (String.length kv - i - 1))
         | None -> None)

let stat_int stats key =
  match List.assoc_opt key stats with
  | Some v -> ( match int_of_string_opt v with Some i -> i | None -> 0)
  | None -> 0
