(** One executor shard's connection event loop.

    A shard-per-domain server spawns one domain per shard; each domain
    runs {!run}, which multiplexes every connection the listener has
    handed it over a [select] loop.  The listener→shard handoff is a
    small mutex-guarded mailbox plus a self-pipe wakeup — synchronized
    once per {e connection}, never per request — and from then on the
    connection is owned exclusively by the shard: message extraction,
    dispatch and the reply write all happen on the shard's domain with
    no locks.

    The loop understands both wire formats of {!Protocol}: newline-
    terminated text lines, and, after a connection sends the [BIN]
    hello, length-prefixed binary frames.  A frame announcing more than
    {!Protocol.Bin.max_frame} bytes, or a text line longer than that
    without a newline, gets one error reply and the connection is
    closed: the stream cannot be resynchronized.

    The shard is the only code that writes to a connection.  Replies
    are queued ({!reply}) and flushed once after the last complete
    message of a read batch, and before any work that is not a
    cache-hit answer.  Connections adopted by {!run} are non-blocking;
    one whose queue is over 64 KiB is neither read nor served until its
    peer drains it, so a peer that stops reading stalls only itself. *)

type t

type conn
(** A connection owned by a shard: its input buffer and reply queue. *)

val reply : conn -> string -> unit
(** Queue reply bytes on the connection (allocation-free unless the
    queue grows). *)

val flush : conn -> unit
(** Write queued bytes until the queue is empty or the socket is full.
    A fast handler calls it before a cache miss's inference. *)

val create : sid:int -> t
(** A shard runtime with an empty mailbox and a fresh wakeup pipe. *)

val sid : t -> int

val submit : t -> Unix.file_descr -> unit
(** Hand an accepted connection to this shard (listener side): enqueue
    the fd and wake the loop.  The shard now owns closing it. *)

val wake : t -> unit
(** Wake the loop out of [select] (used to propagate a stop request). *)

val run :
  t ->
  stop:bool Atomic.t ->
  request_stop:(unit -> unit) ->
  on_line_fast:(conn -> Bytes.t -> off:int -> len:int -> bool) ->
  on_frame_fast:(conn -> Bytes.t -> off:int -> len:int -> bool) ->
  on_line:(string -> string * [ `Continue | `Stop ]) ->
  on_frame:(bytes -> string) ->
  on_close:(unit -> unit) ->
  on_protocol_error:(unit -> unit) ->
  on_flush:(unit -> unit) ->
  unit ->
  unit
(** Run the event loop until [stop] is set.

    Every complete message is first offered to the matching fast
    handler as a {e slice of the connection buffer}: [on_line_fast c
    buf ~off ~len] (one text line, newline stripped) and
    [on_frame_fast c buf ~off ~len] (one frame payload, length prefix
    stripped) return [true] when they recognized the request and queued
    its complete response on [c] with {!reply} — the loop then consumes
    the message without ever copying it.  On [false] the message is
    copied out and handed to the reference handlers, so a fast handler
    that only recognizes warm [EST] requests leaves every other verb
    (including the [BIN] upgrade hello) byte-identical to the slow
    path.  Pass [fun _ _ ~off:_ ~len:_ -> false] to disable.

    [on_line] handles one text request and returns the response plus
    whether the server should stop ([`Stop] triggers [request_stop]
    {e after} the response is flushed, so a SHUTDOWN client sees its
    acknowledgement before the close).  [on_frame] handles one binary
    request payload and returns the encoded response frame.  [on_close]
    fires exactly once per connection this shard ever owned — the
    listener's admission accounting decrements on it.
    [on_protocol_error] fires on unrecoverable framing errors.
    [on_flush] fires once per flush that had bytes to write.  On exit
    queued replies get up to a second to drain, then every owned or
    still-queued connection is closed. *)

val destroy : t -> unit
(** Close the wakeup pipe (after {!run} has returned). *)

(** Synchronous single-connection harness: drive the exact
    message-extraction and dispatch path over an fd the caller owns (a
    socketpair end), without a listener, mailbox or domain.  The
    front-end benchmark measures its zero-allocation gate through
    {!Loopback.step}. *)
module Loopback : sig
  type nonrec conn = conn

  val connect : Unix.file_descr -> conn
  (** Adopt [fd] as a text-mode connection with a fresh buffer.  The fd
      is left blocking. *)

  val alive : conn -> bool

  val step :
    conn ->
    on_line_fast:(conn -> Bytes.t -> off:int -> len:int -> bool) ->
    on_frame_fast:(conn -> Bytes.t -> off:int -> len:int -> bool) ->
    on_line:(string -> string * [ `Continue | `Stop ]) ->
    on_frame:(bytes -> string) ->
    unit
  (** One blocking read followed by processing of every complete
      buffered message, exactly as the shard event loop would.  Every
      reply has been written when it returns. *)
end
