module Latch = struct
  type t = {
    mutable set : bool;
    waiters : (unit -> bool) Ring.t;
    mutable reg : (unit -> bool) -> unit;
  }

  let no_reg (_ : unit -> bool) = ()

  let create () =
    let t = { set = false; waiters = Ring.create (); reg = no_reg } in
    t.reg <- (fun w -> Ring.push t.waiters w);
    t

  let set t =
    if not t.set then begin
      t.set <- true;
      while not (Ring.is_empty t.waiters) do
        ignore ((Ring.pop t.waiters) () : bool)
      done
    end

  let is_set t = t.set

  let wait t = if not t.set then Sim.park t.reg

  let on_set t f =
    if t.set then f ()
    else
      Ring.push t.waiters (fun () ->
          f ();
          true)
end
