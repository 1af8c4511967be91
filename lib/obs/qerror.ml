let n_buckets = 64
let bucket_ratio = sqrt 2.

(* bounds.(i) = upper edge of bucket i; bucket i holds q in
   (ratio^i, ratio^(i+1)], bucket 0 additionally holds q = 1. *)
let bounds = Array.init n_buckets (fun i -> bucket_ratio ** float_of_int (i + 1))

type t = {
  hist : int array;
  mutable count : int;
  mutable sum : float;
  mutable max_q : float;
}

let create () =
  { hist = Array.make n_buckets 0; count = 0; sum = 0.0; max_q = 0.0 }

let value ~est ~truth =
  let e = Float.max est 1.0 and t = Float.max truth 1.0 in
  Float.max (e /. t) (t /. e)

let bucket_of q =
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if q <= bounds.(mid) then search lo mid else search (mid + 1) hi
  in
  search 0 (n_buckets - 1)

let record t q =
  let q = Float.max q 1.0 in
  t.hist.(bucket_of q) <- t.hist.(bucket_of q) + 1;
  t.count <- t.count + 1;
  t.sum <- t.sum +. q;
  if q > t.max_q then t.max_q <- q

let observe t ~est ~truth = record t (value ~est ~truth)

let merge_into ~into t =
  Array.iteri (fun i n -> into.hist.(i) <- into.hist.(i) + n) t.hist;
  into.count <- into.count + t.count;
  into.sum <- into.sum +. t.sum;
  if t.max_q > into.max_q then into.max_q <- t.max_q

let count t = t.count
let mean t = if t.count = 0 then Float.nan else t.sum /. float_of_int t.count
let worst t = if t.count = 0 then Float.nan else t.max_q

let percentile t p =
  if t.count = 0 then Float.nan
  else begin
    let target =
      int_of_float (ceil (p *. float_of_int t.count)) |> Int.max 1
    in
    let acc = ref 0 and i = ref 0 and edge = ref bounds.(n_buckets - 1) in
    (try
       while !i < n_buckets do
         acc := !acc + t.hist.(!i);
         if !acc >= target then begin
           edge := bounds.(!i);
           raise Exit
         end;
         incr i
       done
     with Exit -> ());
    !edge
  end

type summary = {
  n : int;
  mean : float;
  p50 : float;
  p90 : float;
  p99 : float;
  max_q : float;
}

let summarize t =
  { n = t.count; mean = mean t; p50 = percentile t 0.5; p90 = percentile t 0.9;
    p99 = percentile t 0.99; max_q = worst t }

let buckets t =
  let cum = ref 0 in
  Array.mapi
    (fun i n ->
      cum := !cum + n;
      (bounds.(i), !cum))
    t.hist

let of_pairs pairs =
  let t = create () in
  List.iter (fun (truth, est) -> observe t ~est ~truth) pairs;
  t
