let via_umbrella () = ()
let via_module_alias () = ()
let via_let_module () = ()
let via_open () = ()
let only_test () = ()
let own_use () = ()
let unnamed () = own_use ()

module Nested = struct
  let via_nested () = ()
end
