(* One executor shard's connection event loop.

   The listener hands accepted fds to a shard through a small
   mutex-guarded mailbox — the only synchronized structure here, and it
   is touched once per *connection*, never per request.  From then on
   the shard owns the connection exclusively: its [select] loop reads
   whatever bytes are available, slices complete protocol messages out
   of a per-connection buffer (text lines or length-prefixed binary
   frames after the BIN upgrade), and calls back into the server's
   dispatch with no locking whatsoever — the shard's caches, telemetry
   shard and arena are all domain-local.

   The shard is also the only code that writes to a connection: replies
   are queued and flushed once per read batch, and before any work that
   is not a cache-hit answer, so a pipeline of warm hits costs one write
   and a ready reply never waits behind inference.  Fds are non-blocking;
   a connection with more than [out_cap] queued is not read until its
   peer drains it — backpressure on that peer, not a blocked domain.

   A self-pipe wakes the loop out of [select] when the listener
   enqueues a connection or a shutdown is requested; the short select
   timeout is belt-and-braces so a lost wakeup can only delay, never
   hang, the loop. *)

(* A byte window [lo, hi) over a growable buffer: a connection's input
   and its output queue. *)
type win = { mutable b : Bytes.t; mutable lo : int; mutable hi : int }

type conn = {
  fd : Unix.file_descr;
  inq : win;  (* received bytes not yet consumed *)
  outq : win;  (* replies not yet handed to the kernel *)
  mutable scanned : int;  (* no '\n' in the first [scanned] bytes of [inq] *)
  mutable mode : [ `Text | `Bin ];
  mutable alive : bool;
  mutable closing : bool;  (* read nothing more; close once drained *)
  on_flush : unit -> unit;
}

type t = {
  sid : int;
  mailbox : Unix.file_descr Queue.t;
  mb_lock : Mutex.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
}

let create ~sid =
  let wake_r, wake_w = Unix.pipe () in
  (* Both ends non-blocking: the drain reads until EAGAIN, and must not
     block the loop when the pending wakeups are a multiple of its
     scratch size. *)
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  {
    sid;
    mailbox = Queue.create ();
    mb_lock = Mutex.create ();
    wake_r;
    wake_w;
  }

let sid t = t.sid

let wake t =
  (* A full pipe already guarantees a pending wakeup; EAGAIN is fine. *)
  try ignore (Unix.write t.wake_w (Bytes.make 1 '!') 0 1)
  with Unix.Unix_error _ -> ()

let submit t fd =
  Mutex.lock t.mb_lock;
  Queue.push fd t.mailbox;
  Mutex.unlock t.mb_lock;
  wake t

let drain_mailbox t =
  Mutex.lock t.mb_lock;
  let fds = Queue.fold (fun acc fd -> fd :: acc) [] t.mailbox in
  Queue.clear t.mailbox;
  Mutex.unlock t.mb_lock;
  List.rev fds

let drain_wake_pipe t =
  let scratch = Bytes.create 64 in
  let rec go () =
    match Unix.read t.wake_r scratch 0 64 with
    | 64 -> go ()
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error _ -> ()
  in
  go ()

let win () = { b = Bytes.create 4096; lo = 0; hi = 0 }

let new_conn ~on_flush fd =
  { fd; inq = win (); outq = win (); scanned = 0; mode = `Text; alive = true;
    closing = false; on_flush }

(* Room for [n] more bytes at [hi]: slide the window to the front, and
   grow the buffer only when the window itself needs it. *)
let room w n =
  if w.hi + n > Bytes.length w.b then begin
    let len = w.hi - w.lo in
    let b =
      if len + n <= Bytes.length w.b then w.b
      else Bytes.create (2 * (len + n))
    in
    Bytes.blit w.b w.lo b 0 len;
    w.b <- b;
    w.lo <- 0;
    w.hi <- len
  end

(* Above this many queued reply bytes a connection is neither read nor
   served until its peer drains the queue. *)
let out_cap = 1 lsl 16

let pending c = c.outq.hi - c.outq.lo

let close_conn c =
  c.alive <- false;
  (try Unix.close c.fd with Unix.Unix_error _ -> ())

let reply c s =
  let n = String.length s and w = c.outq in
  room w n;
  Bytes.blit_string s 0 w.b w.hi n;
  w.hi <- w.hi + n

(* Hand queued bytes to the kernel until the queue is empty or the
   socket is full (a blocking fd simply takes everything). *)
let rec write_out c =
  let w = c.outq in
  match Unix.single_write c.fd w.b w.lo (w.hi - w.lo) with
  | n ->
    w.lo <- w.lo + n;
    if w.lo < w.hi then write_out c
    else begin
      w.lo <- 0;
      w.hi <- 0
    end
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_out c
  | exception Unix.Unix_error _ -> close_conn c

let flush c =
  if c.alive && pending c > 0 then begin
    c.on_flush ();
    write_out c
  end;
  if c.alive && c.closing && pending c = 0 then close_conn c

(* Index of the next '\n' in the buffered input, or -1.  Resumes where
   the previous scan stopped, so a long line arriving over many reads is
   scanned once.  Top-level recursion: an inner [let rec] would close
   over [c] and allocate on every scan. *)
let rec find_nl_from c i =
  if i >= c.inq.hi then -1
  else if Bytes.unsafe_get c.inq.b i = '\n' then i
  else find_nl_from c (i + 1)

let find_nl c =
  let nl = find_nl_from c (c.inq.lo + c.scanned) in
  c.scanned <- (if nl < 0 then c.inq.hi - c.inq.lo else 0);
  nl

(* Frame-length read without the [Int32] box [Bytes.get_int32_be]
   would allocate — the warm binary path must not touch the heap. *)
let read_u32_be b i =
  (Bytes.get_uint16_be b i lsl 16) lor Bytes.get_uint16_be b (i + 2)

(* A violation the stream cannot be resynchronized after: queue one
   error reply, then close once it has drained. *)
let fail_conn c on_protocol_error err =
  on_protocol_error ();
  reply c err;
  c.closing <- true

(* Process every complete message buffered on [c], queueing the
   replies; [`Stop] when a handler requested server shutdown.  Leaves
   messages buffered while the queue stays over [out_cap] after a flush.

   Each message is first offered to the fast handler as a slice of the
   connection buffer; [true] means it queued the answer itself, with no
   string ever built.  Only on [false] is the message copied out for the
   reference handlers — after a flush, as that is never a cache-hit
   answer.  The fast handlers only match [EST], so the [BIN] hello and
   every other verb always reach the reference path.

   Top-level recursion with the handlers threaded as plain arguments: a
   [let rec go ()] closure inside [process_conn] would be rebuilt on
   every call — the warm loop must not touch the heap. *)
let rec process_go c on_line_fast on_frame_fast on_line on_frame
    on_protocol_error =
  let q = c.inq in
  if (not c.alive) || c.closing then `Continue
  else if pending c > out_cap && (flush c; pending c > out_cap) then `Continue
  else
    match c.mode with
    | `Text ->
      let nl = find_nl c in
      if nl < 0 then begin
        if q.hi - q.lo > Protocol.Bin.max_frame then
          fail_conn c on_protocol_error
            (Protocol.err
               (Printf.sprintf "line exceeds %d bytes without a newline"
                  Protocol.Bin.max_frame)
            ^ "\n");
        `Continue
      end
      else begin
        let stop =
          if nl > q.lo && Bytes.unsafe_get q.b (nl - 1) = '\r' then nl - 1
          else nl
        in
        let off = q.lo and len = stop - q.lo in
        if on_line_fast c q.b ~off ~len then begin
          q.lo <- nl + 1;
          process_go c on_line_fast on_frame_fast on_line on_frame
            on_protocol_error
        end
        else begin
          let line = Bytes.sub_string q.b off len in
          q.lo <- nl + 1;
          if String.uppercase_ascii (String.trim line) = Protocol.Bin.hello
          then begin
            (* Upgrade: acknowledge in text, switch framing.  The hello
               itself is not a counted request. *)
            reply c (Protocol.Bin.hello_ok ^ "\n");
            c.mode <- `Bin;
            process_go c on_line_fast on_frame_fast on_line on_frame
              on_protocol_error
          end
          else begin
            flush c;
            let response, action = on_line line in
            reply c response;
            reply c "\n";
            if action = `Stop then begin
              c.closing <- true;
              `Stop
            end
            else
              process_go c on_line_fast on_frame_fast on_line on_frame
                on_protocol_error
          end
        end
      end
    | `Bin ->
      if q.hi - q.lo < 4 then `Continue
      else begin
        let flen = read_u32_be q.b q.lo in
        if flen > Protocol.Bin.max_frame then begin
          fail_conn c on_protocol_error
            (Protocol.Bin.encode_response
               (Protocol.Bin.Berr
                  (Printf.sprintf "bin: frame length %d exceeds %d" flen
                     Protocol.Bin.max_frame)));
          `Continue
        end
        else if q.hi - q.lo - 4 < flen then `Continue
        else begin
          let off = q.lo + 4 in
          if on_frame_fast c q.b ~off ~len:flen then begin
            q.lo <- off + flen;
            process_go c on_line_fast on_frame_fast on_line on_frame
              on_protocol_error
          end
          else begin
            let payload = Bytes.sub q.b off flen in
            q.lo <- off + flen;
            flush c;
            reply c (on_frame payload);
            process_go c on_line_fast on_frame_fast on_line on_frame
              on_protocol_error
          end
        end
      end

(* Serve the buffered batch, then flush its replies in one go. *)
let process_conn c ~on_line_fast ~on_frame_fast ~on_line ~on_frame
    ~on_protocol_error =
  let r =
    process_go c on_line_fast on_frame_fast on_line on_frame on_protocol_error
  in
  flush c;
  r

(* Read whatever is available on [c].  0 bytes means the peer closed or
   half-closed: queued replies still go out, then the connection closes. *)
let read_into c =
  let q = c.inq in
  room q 4096;
  match Unix.read c.fd q.b q.hi (Bytes.length q.b - q.hi) with
  | 0 -> c.closing <- true
  | n -> q.hi <- q.hi + n
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    -> ()
  | exception Unix.Unix_error _ -> close_conn c

let run t ~stop ~request_stop ~on_line_fast ~on_frame_fast ~on_line ~on_frame
    ~on_close ~on_protocol_error ~on_flush () =
  let conns = ref [] in
  let reap () =
    let live, dead = List.partition (fun c -> c.alive) !conns in
    List.iter (fun _ -> on_close ()) dead;
    conns := live
  in
  let serve c =
    if c.alive then
      match
        process_conn c ~on_line_fast ~on_frame_fast ~on_line ~on_frame
          ~on_protocol_error
      with
      | `Continue -> ()
      | `Stop -> request_stop ()
  in
  let fds cs = List.map (fun c -> c.fd) cs in
  let writers () = List.filter (fun c -> c.alive && pending c > 0) !conns in
  while not (Atomic.get stop) do
    let readers =
      List.filter (fun c -> (not c.closing) && pending c <= out_cap) !conns
    in
    match Unix.select (t.wake_r :: fds readers) (fds (writers ())) [] 0.25 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, writable, _ ->
      if List.memq t.wake_r readable then begin
        drain_wake_pipe t;
        List.iter
          (fun fd ->
            Unix.set_nonblock fd;
            conns := new_conn ~on_flush fd :: !conns)
          (drain_mailbox t)
      end;
      List.iter
        (fun c ->
          if c.alive && List.memq c.fd writable then begin
            (* Drained some: serve what backpressure held back. *)
            flush c;
            serve c
          end;
          if c.alive && (not c.closing) && List.memq c.fd readable then begin
            read_into c;
            serve c
          end)
        !conns;
      reap ()
  done;
  (* Shutdown: queued replies (a SHUTDOWN acknowledgement among them)
     get up to a second to drain; then close every owned connection and
     anything still in the mailbox. *)
  let deadline = Unix.gettimeofday () +. 1.0 in
  while writers () <> [] && Unix.gettimeofday () < deadline do
    match Unix.select [] (fds (writers ())) [] 0.05 with
    | _, writable, _ ->
      List.iter (fun c -> if List.memq c.fd writable then flush c) !conns
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  List.iter (fun c -> if c.alive then close_conn c) !conns;
  List.iter (fun _ -> on_close ()) !conns;
  conns := [];
  List.iter
    (fun fd ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      on_close ())
    (drain_mailbox t)

let destroy t =
  (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
  (try Unix.close t.wake_w with Unix.Unix_error _ -> ())

(* ---- loopback harness ----------------------------------------------------- *)

(* Drive one connection synchronously over an fd the caller already
   owns (a socketpair end): no mailbox, no [select], no domain.  The fd
   stays blocking, so the end-of-batch flush writes every reply before
   [step] returns.  The front-end benchmark and the tests use this to
   measure the true socket-read → answer-write path — fast handlers
   included — without standing up a listener. *)
module Loopback = struct
  type nonrec conn = conn

  let connect fd = new_conn ~on_flush:ignore fd
  let alive c = c.alive

  let step c ~on_line_fast ~on_frame_fast ~on_line ~on_frame =
    read_into c;
    if c.alive then
      ignore
        (process_conn c ~on_line_fast ~on_frame_fast ~on_line ~on_frame
           ~on_protocol_error:ignore)
end
