(* Entry-count LRU of compiled plans, same hashtable + recency-list
   structure as {!Lru} but generic in the payload.  Since the
   allocation-free front-end, the table indexes on the caller's
   precomputed 64-bit key hash ({!Canon.Skel}); the rendered key string
   is stored beside each entry and compared only when a probe's hash
   matches — i.e. full-key verification happens exactly once per lookup
   that could be a collision, never as part of key construction.  A true
   collision (equal hashes, different keys) evicts the resident entry:
   with 63-bit FNV over short keys this is a theoretical case, and
   keeping one chain per hash keeps the probe branch-free.

   No lock: each executor shard owns its instance, and only the shard's
   domain touches it. *)

type node = {
  hash : int;
  key : string;  (* full rendered key, for collision verification *)
  plan : Selest_plan.Plan.t;
  mutable prev : node option;  (* towards the hot (most recent) end *)
  mutable next : node option;  (* towards the cold end *)
}

type t = {
  capacity : int;
  tbl : (int, node) Hashtbl.t;
  mutable hot : node option;
  mutable cold : node option;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable collisions : int;
}

let create ?(capacity = 256) () =
  if capacity <= 0 then invalid_arg "Plan_cache.create: capacity must be positive";
  {
    capacity;
    tbl = Hashtbl.create 64;
    hot = None;
    cold = None;
    hits = 0;
    misses = 0;
    evictions = 0;
    collisions = 0;
  }

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.hot <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.cold <- n.prev);
  n.prev <- None;
  n.next <- None

let push_hot t n =
  n.next <- t.hot;
  n.prev <- None;
  (match t.hot with Some h -> h.prev <- Some n | None -> t.cold <- Some n);
  t.hot <- Some n

let evict_cold t =
  match t.cold with
  | None -> ()
  | Some n ->
    unlink t n;
    Hashtbl.remove t.tbl n.hash;
    t.evictions <- t.evictions + 1

let insert t ~hash ~key ~compile =
  t.misses <- t.misses + 1;
  let plan = compile () in
  let n = { hash; key; plan; prev = None; next = None } in
  Hashtbl.replace t.tbl hash n;
  push_hot t n;
  while Hashtbl.length t.tbl > t.capacity do
    evict_cold t
  done;
  (plan, `Miss)

let find_or_compile t ~hash ~key ~compile =
  match Hashtbl.find_opt t.tbl hash with
  | Some n when String.equal n.key key ->
    t.hits <- t.hits + 1;
    unlink t n;
    push_hot t n;
    (n.plan, `Hit)
  | Some n ->
    (* hash collision: evict the resident entry, compile ours *)
    t.collisions <- t.collisions + 1;
    unlink t n;
    Hashtbl.remove t.tbl n.hash;
    t.evictions <- t.evictions + 1;
    insert t ~hash ~key ~compile
  | None -> insert t ~hash ~key ~compile

let stats t = (t.hits, t.misses, t.evictions)
let collisions t = t.collisions
let length t = Hashtbl.length t.tbl

let clear t =
  Hashtbl.reset t.tbl;
  t.hot <- None;
  t.cold <- None
