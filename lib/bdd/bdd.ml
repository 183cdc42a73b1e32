(* Node store: node 0 = terminal FALSE, node 1 = terminal TRUE.  Internal
   node i >= 2 has (var, low, high) with low <> high and both children over
   strictly larger variables.

   All storage is flat int arrays.  The unique table is open-addressed
   with linear probing over node ids (0 marks an empty slot, since
   internal ids are >= 2), twice the size of the node store so its load
   stays at most 1/2, and rehashed whenever the store doubles.  The
   computed cache is a direct-mapped array of (op, a, b, result) quads
   shared by every operation; an insert overwrites whatever entry held its
   slot.  Losing an entry cannot change node ids: recomputing a result
   reruns [mk] only on triples the first computation already inserted, so
   it finds them in the unique table and allocates nothing. *)

type t = int

exception Limit_exceeded

type manager = {
  nvars : int;
  node_limit : int;
  mutable vars : int array;
  mutable lows : int array;
  mutable highs : int array;
  mutable n : int;
  mutable table : int array;  (** unique table: node ids, 0 = empty *)
  mutable cache : int array;
      (** computed cache: quads (op, a, b, result), op = -1 when empty.
          Ops: 0 = and, 1 = or, 2 = xor, 3 = not (b = 0). *)
  mutable stamp : Bytes.t;
      (** probability queries: node x is memoised in the running query
          iff stamp.[x] = epoch (1 .. 255); value holds its probability,
          v0 / v1 its cofactor pair *)
  mutable epoch : int;
  mutable value : float array;
  mutable v0 : float array;
  mutable v1 : float array;
}

let terminal_var = max_int

(* The smallest power of two, at least 1024, that holds [capacity] nodes
   or every node [node_limit] allows, whichever is fewer. *)
let initial_capacity ~capacity node_limit =
  let rec fit c = if c >= capacity || c >= node_limit then c else fit (2 * c) in
  fit 1024

(* The computed cache holds one entry per two slots of the node store and
   doubles with it, up to this many entries (32 MB). *)
let max_cache_entries = 1 lsl 20

let[@inline] hash3 a b c =
  let k = 0x2545F4914F6CDD1D in
  let h = ((((a * k) + b) * k) + c) * k in
  h lxor (h lsr 29)

let manager ?(node_limit = 2_000_000) ?(capacity = 1024) ~nvars () =
  let cap = initial_capacity ~capacity node_limit in
  { nvars;
    node_limit;
    vars = Array.make cap terminal_var;
    lows = Array.make cap 0;
    highs = Array.make cap 0;
    n = 2;
    table = Array.make (2 * cap) 0;
    cache = Array.make (2 * cap) (-1);
    stamp = Bytes.empty;
    epoch = 0;
    value = [||];
    v0 = [||];
    v1 = [||] }

let node_count m = m.n - 2

let zero (_ : manager) : t = 0
let one (_ : manager) : t = 1
let is_zero (x : t) = x = 0
let is_one (x : t) = x = 1
let equal (a : t) (b : t) = a = b

(* --- unique table -------------------------------------------------------- *)

(* Node id of (v, low, high) if present, else [lnot i] for the empty slot
   [i] it would occupy. *)
let rec probe m mask v low high i =
  let id = Array.unsafe_get m.table i in
  if id = 0 then lnot i
  else if m.vars.(id) = v && m.lows.(id) = low && m.highs.(id) = high then id
  else probe m mask v low high ((i + 1) land mask)

let rec free_slot table mask i =
  if Array.unsafe_get table i = 0 then i else free_slot table mask ((i + 1) land mask)

(* --- computed cache ------------------------------------------------------ *)

let[@inline] cache_slot cache op a b = (hash3 op a b land ((Array.length cache lsr 2) - 1)) lsl 2

(* The cached result, or -1. *)
let cache_find m op a b =
  let c = m.cache in
  let s = cache_slot c op a b in
  if c.(s) = op && c.(s + 1) = a && c.(s + 2) = b then c.(s + 3) else -1

let cache_add m op a b r =
  let c = m.cache in
  let s = cache_slot c op a b in
  c.(s) <- op;
  c.(s + 1) <- a;
  c.(s + 2) <- b;
  c.(s + 3) <- r

(* Double the node store, rehash the unique table into twice that, and
   double the computed cache until it reaches its cap.  The cache is lossy,
   so copying its entries over is only a saving: the results they hold are
   not recomputed. *)
let grow m =
  let cap = 2 * Array.length m.vars in
  let extend a fill =
    let a' = Array.make cap fill in
    Array.blit a 0 a' 0 m.n;
    a'
  in
  m.vars <- extend m.vars terminal_var;
  m.lows <- extend m.lows 0;
  m.highs <- extend m.highs 0;
  let table = Array.make (2 * cap) 0 in
  let mask = (2 * cap) - 1 in
  for id = 2 to m.n - 1 do
    table.(free_slot table mask (hash3 m.vars.(id) m.lows.(id) m.highs.(id) land mask)) <- id
  done;
  m.table <- table;
  let old = m.cache in
  let entries = Array.length old / 4 in
  if entries < max_cache_entries then begin
    m.cache <- Array.make (8 * entries) (-1);
    for e = 0 to entries - 1 do
      let s = 4 * e in
      if old.(s) >= 0 then cache_add m old.(s) old.(s + 1) old.(s + 2) old.(s + 3)
    done
  end

let mk m v low high =
  if low = high then low
  else begin
    let mask = Array.length m.table - 1 in
    let found = probe m mask v low high (hash3 v low high land mask) in
    if found >= 0 then found
    else begin
      if m.n >= m.node_limit then raise Limit_exceeded;
      let slot =
        if m.n < Array.length m.vars then lnot found
        else begin
          grow m;
          let mask = Array.length m.table - 1 in
          free_slot m.table mask (hash3 v low high land mask)
        end
      in
      let id = m.n in
      m.n <- id + 1;
      m.vars.(id) <- v;
      m.lows.(id) <- low;
      m.highs.(id) <- high;
      m.table.(slot) <- id;
      id
    end
  end

(* --- operations ---------------------------------------------------------- *)

let var m i =
  if i < 0 || i >= m.nvars then invalid_arg "Bdd.var";
  mk m i 0 1

let rec not_ m x =
  if x < 2 then 1 - x
  else begin
    let r = cache_find m 3 x 0 in
    if r >= 0 then r
    else begin
      let r = mk m m.vars.(x) (not_ m m.lows.(x)) (not_ m m.highs.(x)) in
      cache_add m 3 x 0 r;
      r
    end
  end

(* Terminal rules per op: the result, or -1 when none applies. *)
let terminal m op f g =
  match op with
  | 0 (* and *) ->
    if f = 0 || g = 0 then 0
    else if f = 1 then g
    else if g = 1 then f
    else if f = g then f
    else -1
  | 1 (* or *) ->
    if f = 1 || g = 1 then 1
    else if f = 0 then g
    else if g = 0 then f
    else if f = g then f
    else -1
  | 2 (* xor *) ->
    if f = g then 0
    else if f = 0 then g
    else if g = 0 then f
    else if f = 1 then not_ m g
    else if g = 1 then not_ m f
    else -1
  | _ -> invalid_arg "Bdd.apply: bad op"

let rec apply m op f g =
  let r = terminal m op f g in
  if r >= 0 then r
  else begin
    (* Commutative ops: normalise operand order for cache hits. *)
    let f' = if f <= g then f else g and g' = if f <= g then g else f in
    let r = cache_find m op f' g' in
    if r >= 0 then r
    else begin
      let vf = m.vars.(f') and vg = m.vars.(g') in
      let v = if vf <= vg then vf else vg in
      let f0 = if vf = v then m.lows.(f') else f' and f1 = if vf = v then m.highs.(f') else f' in
      let g0 = if vg = v then m.lows.(g') else g' and g1 = if vg = v then m.highs.(g') else g' in
      let r = mk m v (apply m op f0 g0) (apply m op f1 g1) in
      cache_add m op f' g' r;
      r
    end
  end

let and_ m f g = apply m 0 f g
let or_ m f g = apply m 1 f g
let xor_ m f g = apply m 2 f g

let apply_kind m kind args =
  let open Rt_circuit.Gate in
  let fold op init = Array.fold_left (fun acc x -> apply m op acc x) init args in
  match kind with
  | Input -> invalid_arg "Bdd.apply_kind: Input"
  | Const0 -> 0
  | Const1 -> 1
  | Buf -> args.(0)
  | Not -> not_ m args.(0)
  | And -> fold 0 1
  | Nand -> not_ m (fold 0 1)
  | Or -> fold 1 0
  | Nor -> not_ m (fold 1 0)
  | Xor -> fold 2 0
  | Xnor -> not_ m (fold 2 0)

let eval m x assign =
  let rec go x = if x < 2 then x = 1 else go (if assign m.vars.(x) then m.highs.(x) else m.lows.(x)) in
  go x

(* --- probabilities ------------------------------------------------------- *)

(* Start a probability query: node [x] is memoised in it iff [stamp.[x]]
   holds the returned epoch, so a query costs O(nodes it visits) however
   large the manager; only every 255th query clears the stamps.  The
   scratch arrays cover the nodes that exist now; [pair] also sizes the
   cofactor-pair arrays.  Terminals are never stamped: [value.(0)] and
   [value.(1)] hold 0.0 and 1.0 for good. *)
let start_query m ~pair =
  if Bytes.length m.stamp < m.n then begin
    m.stamp <- Bytes.make m.n '\000';
    m.epoch <- 0;
    m.value <- Array.make m.n 0.0;
    m.value.(1) <- 1.0
  end
  else if m.epoch = 255 then begin
    Bytes.fill m.stamp 0 (Bytes.length m.stamp) '\000';
    m.epoch <- 0
  end;
  if pair && Array.length m.v0 < m.n then begin
    m.v0 <- Array.make m.n 0.0;
    m.v1 <- Array.make m.n 0.0
  end;
  m.epoch <- m.epoch + 1;
  Char.chr m.epoch

let rec fill m p e x =
  if x >= 2 && Bytes.get m.stamp x <> e then begin
    Bytes.set m.stamp x e;
    let lo = m.lows.(x) and hi = m.highs.(x) in
    fill m p e lo;
    fill m p e hi;
    let pv = p m.vars.(x) in
    m.value.(x) <- ((1.0 -. pv) *. m.value.(lo)) +. (pv *. m.value.(hi))
  end

let prob_many m roots p =
  let e = start_query m ~pair:false in
  Array.map
    (fun x ->
      fill m p e x;
      m.value.(x))
    roots

let prob m x p = (prob_many m [| x |] p).(0)

(* Both single-variable cofactor probabilities of every root in one
   traversal.  A node ordered strictly below [var] cannot depend on it and
   is evaluated once by [fill] (its scalar serves both components); a node
   on [var] splits into its children's scalars; ancestors combine the
   pairs componentwise in [v0]/[v1].  The two kinds of node never meet, so
   they share one stamp: [fill] only descends to larger variables.  Each
   component is bit-identical to [prob_many] with [p var] forced to 0.0 /
   1.0: at a [var] node the full evaluation computes
   [1.0 *. value low +. 0.0 *. value high] (resp. the mirror), which is
   exactly [value low] in IEEE arithmetic because every partial
   probability here is finite and non-negative (so the dropped product is
   +0.0 and the kept one is preserved by the multiplication by 1.0). *)
let pair0 m var x = if m.vars.(x) > var then m.value.(x) else m.v0.(x)
let pair1 m var x = if m.vars.(x) > var then m.value.(x) else m.v1.(x)

let rec fill_pair m p e var x =
  if m.vars.(x) > var then fill m p e x (* terminals land here too *)
  else if Bytes.get m.stamp x <> e then begin
    Bytes.set m.stamp x e;
    let v = m.vars.(x) and lo = m.lows.(x) and hi = m.highs.(x) in
    if v = var then begin
      fill m p e lo;
      fill m p e hi;
      m.v0.(x) <- m.value.(lo);
      m.v1.(x) <- m.value.(hi)
    end
    else begin
      fill_pair m p e var lo;
      fill_pair m p e var hi;
      let pv = p v in
      m.v0.(x) <- ((1.0 -. pv) *. pair0 m var lo) +. (pv *. pair0 m var hi);
      m.v1.(x) <- ((1.0 -. pv) *. pair1 m var lo) +. (pv *. pair1 m var hi)
    end
  end

let prob_pair_many m roots ~var p =
  let e = start_query m ~pair:true in
  Array.map
    (fun x ->
      fill_pair m p e var x;
      (pair0 m var x, pair1 m var x))
    roots
