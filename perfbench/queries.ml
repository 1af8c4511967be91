(* Seeded query spaces over the TB schema and the in-process reference
   oracle every served answer is checked against.

   A skeleton fixes the tuple variables, the joins and the set of selected
   attributes; a query binds one predicate per selected attribute.  Range
   predicates are drawn only on ordinal attributes and set predicates only
   on nominal ones, so every generated query is schema-valid and no request
   fails by construction. *)

open Selest
module Rng = Util.Rng

type attr = { tv : string; name : string; card : int; ordinal : bool }

type shape = { tvs : string list; tvars_text : string; joins_text : string }

type skeleton = { shape : shape; attrs : attr array }

(* The table sets a foreign-key query over TB can span. *)
let shapes =
  let mk tvs tvars_text joins_text = { tvs; tvars_text; joins_text } in
  [|
    mk [ "s" ] "s=strain" "";
    mk [ "p" ] "p=patient" "";
    mk [ "c" ] "c=contact" "";
    mk [ "p"; "s" ] "p=patient, s=strain" "p.strain=s";
    mk [ "c"; "p" ] "c=contact, p=patient" "c.patient=p";
    mk [ "c"; "p"; "s" ] "c=contact, p=patient, s=strain" "c.patient=p, p.strain=s";
  |]

let table_of_tv = function
  | "s" -> "strain"
  | "p" -> "patient"
  | "c" -> "contact"
  | tv -> invalid_arg ("table_of_tv " ^ tv)

let attrs_of_shape shape =
  let schema = Synth.Tb.schema in
  List.concat_map
    (fun tv ->
      let ts = Db.Schema.find_table schema (table_of_tv tv) in
      Array.to_list ts.Db.Schema.attrs
      |> List.map (fun (a : Db.Schema.attr) ->
             {
               tv;
               name = a.Db.Schema.aname;
               card = Db.Value.card a.Db.Schema.domain;
               ordinal = Db.Value.is_ordinal a.Db.Schema.domain;
             }))
    shape.tvs
  |> Array.of_list

(* [n] distinct skeletons: a shape drawn from [shape_ids], then
   [min_attrs..max_attrs] distinct attributes of it. *)
let skeletons rng ~n ~shape_ids ~min_attrs ~max_attrs =
  let seen = Hashtbl.create (2 * n) in
  let out = ref [] and count = ref 0 and attempts = ref 0 in
  while !count < n do
    incr attempts;
    if !attempts > 1000 * n then failwith "skeletons: query space too small";
    let shape = shapes.(shape_ids.(Rng.int rng (Array.length shape_ids))) in
    let pool = attrs_of_shape shape in
    let k = min (Array.length pool) (min_attrs + Rng.int rng (max_attrs - min_attrs + 1)) in
    let idx = Array.init (Array.length pool) Fun.id in
    Rng.shuffle rng idx;
    let chosen = Array.sub idx 0 k in
    Array.sort compare chosen;
    let key = (shape.tvars_text, Array.to_list chosen) in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      out := { shape; attrs = Array.map (fun i -> pool.(i)) chosen } :: !out;
      incr count
    end
  done;
  Array.of_list (List.rev !out)

(* One predicate: an equality half the time, otherwise a range (ordinal)
   or a set of at least two values (nominal). *)
let predicate rng a =
  if a.card < 2 || Rng.bool rng then string_of_int (Rng.int rng a.card)
  else if a.ordinal then begin
    let lo = Rng.int rng (a.card - 1) in
    let hi = lo + 1 + Rng.int rng (a.card - 1 - lo) in
    Printf.sprintf "%d..%d" lo hi
  end
  else begin
    let vals = List.filter (fun _ -> Rng.bool rng) (List.init a.card Fun.id) in
    let vals =
      match vals with
      | [] | [ _ ] ->
        let x = Rng.int rng a.card in
        [ x; (x + 1 + Rng.int rng (a.card - 1)) mod a.card ] |> List.sort compare
      | l -> l
    in
    "{" ^ String.concat "," (List.map string_of_int vals) ^ "}"
  end

let body rng sk =
  let sels =
    Array.to_list sk.attrs
    |> List.map (fun a -> Printf.sprintf "%s.%s=%s" a.tv a.name (predicate rng a))
  in
  Printf.sprintf "%s ; %s ; %s" sk.shape.tvars_text sk.shape.joins_text
    (String.concat ", " sels)

(* Number of distinct bindings of a skeleton (equalities plus ranges or
   sets of at least two values, per attribute). *)
let space sk =
  Array.fold_left
    (fun acc a ->
      let multi =
        if a.ordinal then a.card * (a.card - 1) / 2 else (1 lsl a.card) - a.card - 1
      in
      acc *. float_of_int (a.card + multi))
    1.0 sk.attrs

(* Zipf(s = 1) sampler over ranks [0, n). *)
let zipf_sampler n =
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for k = 0 to n - 1 do
    acc := !acc +. (1.0 /. float_of_int (k + 1));
    cdf.(k) <- !acc
  done;
  let total = !acc in
  fun rng ->
    let u = Rng.float rng *. total in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    !lo

(* ---- reference oracle ---------------------------------------------------- *)

type oracle = {
  db : Db.Database.t;
  model : Prm.Model.t;
  sizes : int array;
  plans : (string, Plan.t) Hashtbl.t;
  memo : (string, float) Hashtbl.t;
}

let oracle db model =
  {
    db;
    model;
    sizes = Prm.Estimate.sizes_of_db db;
    plans = Hashtbl.create 4096;
    memo = Hashtbl.create 65536;
  }

(* The query the server answers for a body: parsed, then canonicalized. *)
let canonical db body =
  let tvars, joins, selects = Serve.Protocol.split_sections body in
  Serve.Canon.normalize (Db.Qparse.parse db ~tvars ~joins ~selects ())

(* The served estimate for a body: one compiled plan per skeleton, as in
   the server's plan cache. *)
let estimate o body =
  match Hashtbl.find_opt o.memo body with
  | Some e -> e
  | None ->
    let q = canonical o.db body in
    let key = Plan.skeleton_key q in
    let plan =
      match Hashtbl.find_opt o.plans key with
      | Some p -> p
      | None ->
        let p = Plan.compile o.model q in
        Hashtbl.add o.plans key p;
        p
    in
    let e = Plan.estimate plan ~sizes:o.sizes q in
    Hashtbl.add o.memo body e;
    e

let truth o body = Db.Exec.query_size o.db (canonical o.db body)

let text_answer e = Printf.sprintf "%.17g" e
