(* Named-metric registry.

   Subsystems register counters/gauges/histograms/rates under a name
   plus optional labels and hold on to the returned handle; the
   registry owns nothing but the name -> instrument mapping, so
   snapshots are a pure read. Export is sorted by key, never by
   Hashtbl iteration order, to keep output byte-stable across runs. *)

type instrument =
  | Counter of float ref
  | Gauge of float ref
  | Derived of (unit -> float)
  | Histogram of Stats.Histogram.t
  | Rate of Stats.Rate.t

type t = {
  enabled : bool;
  tbl : (string, instrument) Hashtbl.t;
}

let null = { enabled = false; tbl = Hashtbl.create 1 }
let create () = { enabled = true; tbl = Hashtbl.create 64 }
let enabled t = t.enabled

let key name labels =
  match labels with
  | [] -> name
  | labels ->
    let labels = List.sort compare labels in
    name
    ^ String.concat ""
        (List.map (fun (k, v) -> Printf.sprintf "|%s=%s" k v) labels)

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Derived _ -> "derived"
  | Histogram _ -> "histogram"
  | Rate _ -> "rate"

(* Register-or-reuse: a second registration of the same key returns the
   existing instrument so independent subsystems can share a metric. The
   disabled registry hands out fresh throwaway instruments instead of
   storing them — [null] is a shared singleton and must stay stateless. *)
let register t ~labels name ~make ~extract =
  if not t.enabled then Option.get (extract (make ()))
  else
  let k = key name labels in
  match Hashtbl.find_opt t.tbl k with
  | Some existing -> (
    match extract existing with
    | Some v -> v
    | None ->
      invalid_arg
        (Printf.sprintf "Metrics: %S already registered as a %s" k
           (kind_name existing)))
  | None ->
    let instr = make () in
    Hashtbl.replace t.tbl k instr;
    Option.get (extract instr)

let counter ?(labels = []) t name =
  register t ~labels name
    ~make:(fun () -> Counter (ref 0.0))
    ~extract:(function Counter r -> Some r | _ -> None)

let gauge ?(labels = []) t name =
  register t ~labels name
    ~make:(fun () -> Gauge (ref 0.0))
    ~extract:(function Gauge r -> Some r | _ -> None)

let histogram ?(labels = []) t name =
  register t ~labels name
    ~make:(fun () -> Histogram (Stats.Histogram.create ()))
    ~extract:(function Histogram h -> Some h | _ -> None)

let rate t name =
  register t ~labels:[] name
    ~make:(fun () -> Rate (Stats.Rate.create ()))
    ~extract:(function Rate r -> Some r | _ -> None)

(* Derived gauges are pull-only: the closure is evaluated when a
   snapshot consumer visits the key, never on the hot path. First
   registration wins so shared subsystems can re-register the same key
   without clobbering an earlier closure. *)
let derived ?(labels = []) t name f =
  if t.enabled then begin
    let k = key name labels in
    match Hashtbl.find_opt t.tbl k with
    | Some (Derived _) -> ()
    | Some existing ->
      invalid_arg
        (Printf.sprintf "Metrics: %S already registered as a %s" k
           (kind_name existing))
    | None -> Hashtbl.replace t.tbl k (Derived f)
  end

let incr ?(by = 1.0) r = r := !r +. by
let set r v = r := v

let size t = Hashtbl.length t.tbl

(* --- typed snapshots --- *)

type view =
  | V_counter of float
  | V_gauge of float
  | V_histogram of Stats.Histogram.t
  | V_rate of Stats.Rate.t

let view_of_instrument = function
  | Counter r -> V_counter !r
  | Gauge r -> V_gauge !r
  | Derived f -> V_gauge (f ())
  | Histogram h -> V_histogram h
  | Rate r -> V_rate r

let scalar = function
  | V_counter v | V_gauge v -> v
  | V_histogram h -> float_of_int (Stats.Histogram.count h)
  | V_rate r -> Stats.Rate.total r

let sorted_keys ?filter t =
  let keep = match filter with None -> fun _ -> true | Some f -> f in
  let keys =
    Hashtbl.fold (fun k _ acc -> if keep k then k :: acc else acc) t.tbl []
  in
  List.sort compare keys

let iter ?filter t f =
  List.iter
    (fun k -> f k (view_of_instrument (Hashtbl.find t.tbl k)))
    (sorted_keys ?filter t)

let fold ?filter t f init =
  List.fold_left
    (fun acc k -> f k (view_of_instrument (Hashtbl.find t.tbl k)) acc)
    init
    (sorted_keys ?filter t)

let find t k =
  Option.map view_of_instrument (Hashtbl.find_opt t.tbl k)

(* --- export --- *)

let buf_add_json_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let buf_add_float b v =
  if Float.is_nan v then Buffer.add_string b "null"
  else if Float.is_integer v && Float.abs v < 1e15 then
    Buffer.add_string b (Printf.sprintf "%.0f" v)
  else Buffer.add_string b (Printf.sprintf "%.9g" v)

let buf_add_field b ~first k v =
  if not first then Buffer.add_char b ',';
  buf_add_json_string b k;
  Buffer.add_char b ':';
  buf_add_float b v

let one_second_ns = 1_000_000_000

let buf_add_view b = function
  | V_counter v | V_gauge v -> buf_add_float b v
  | V_histogram h ->
    let open Stats.Histogram in
    Buffer.add_char b '{';
    buf_add_field b ~first:true "count" (float_of_int (count h));
    if count h > 0 then begin
      buf_add_field b ~first:false "mean" (mean h);
      buf_add_field b ~first:false "stddev" (stddev h);
      buf_add_field b ~first:false "min" (min h);
      buf_add_field b ~first:false "max" (max h);
      buf_add_field b ~first:false "p50" (percentile h 50.0);
      buf_add_field b ~first:false "p90" (percentile h 90.0);
      buf_add_field b ~first:false "p99" (percentile h 99.0)
    end;
    Buffer.add_char b '}'
  | V_rate r ->
    Buffer.add_char b '{';
    buf_add_field b ~first:true "total" (Stats.Rate.total r);
    buf_add_field b ~first:false "events"
      (float_of_int (Stats.Rate.count r));
    Buffer.add_string b ",\"windows\":[";
    List.iteri
      (fun i (ts, rate) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b "[";
        buf_add_float b (float_of_int ts /. 1e9);
        Buffer.add_char b ',';
        buf_add_float b rate;
        Buffer.add_char b ']')
      (Stats.Rate.per_window r ~width:one_second_ns);
    Buffer.add_string b "]}"

let to_json ?filter t =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{";
  let first = ref true in
  iter ?filter t (fun k view ->
      if not !first then Buffer.add_char b ',';
      first := false;
      Buffer.add_char b '\n';
      buf_add_json_string b k;
      Buffer.add_string b ": ";
      buf_add_view b view);
  Buffer.add_string b "\n}\n";
  Buffer.contents b

let write ?filter t path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_json ?filter t))
